// Package hashring is the adoption-ready facade over the paper's
// result: a consistent-hashing ring with power-of-d-choices placement,
// in the style of production consistent-hash libraries but with the
// paper's load balancing built in — and, since the concurrent-router
// rewrite, safe for many goroutines serving lookups while membership
// churns.
//
// Servers are identified by strings and hashed to ring positions (so
// placement is a pure function of the membership set — no coordination
// needed); keys are hashed with d salts and stored at the least-loaded
// candidate owner. The ring tracks per-server load and exposes the
// same Add/Remove/Place/Locate surface a cache or shard router needs.
//
// # Architecture
//
// This package owns only the ring GEOMETRY: hashing servers to sorted
// points on [0, 1) and resolving a key hash to the owner of its arc
// through an internal/jump index (ringTopo, the router.Topology and
// router.BlockTopology implementation). Everything else — the
// immutable snapshot publication, copy-on-write membership,
// per-slot load counters, hash-sharded key tables, the resolve →
// select → commit serving pipeline behind Place/Locate/Remove and
// their batch forms, Rebalance/Repair and journal replay — is the
// space-agnostic serving core in
// internal/router, shared verbatim with the torus-backed router.Geo.
// Ring embeds the core's *router.Router, so those methods are the
// core's own, and keeps the router.Membership handle through which it
// publishes each membership change with its rebuilt ring topology.
//
// # Concurrency model
//
// The ring topology (live servers, their capacities, and the sorted
// point set in internal/jump form) lives in an immutable snapshot
// published through an atomic.Pointer. Readers load the snapshot once
// per operation and resolve all d candidates against it, so a lookup
// can never observe a half-applied membership change and takes no lock
// on the topology. Membership ops (AddServer, RemoveServer,
// SetCapacity) serialize on a writer mutex, copy-on-write a new
// snapshot, and publish it atomically; New adds its whole server list
// in one such transaction, so it clones the snapshot and sorts the
// ring once, not once per server.
//
// Per-server load is one counter per server slot, on its own cache
// line and carried by pointer across snapshots; Place/Remove add to it
// atomically. Key records live in 64 hash-sharded key tables, so
// writers on different keys rarely contend; a table's entries sit in
// pages that its growth appends to and never copies. Locate, LocateAny,
// Owners and LocateBatch read a table without its lock: they check the
// table's sequence number around the probe instead, and take the lock
// only after repeated conflicts with a writer. The candidate resolution
// itself never blocks on these shards.
//
// Place, Locate, and Remove on an unchanged ring are allocation-free
// (guarded by TestReadPathAllocs).
//
// Relationship to the other packages: internal/ring + internal/core
// study the process on *random real-valued* positions (the paper's
// model); internal/chord adds overlay routing; this package is the
// deployable library distillation — deterministic hashing, string IDs,
// incremental membership, and d-choice placement with redirect-free
// lookup. internal/loadgen drives this package with skewed concurrent
// traffic.
package hashring

import (
	"fmt"
	"math"
	"sort"

	"geobalance/internal/journal"
	"geobalance/internal/jump"
	"geobalance/internal/router"
)

// ringTopo is the ring metric as a router.Topology: every live server
// contributes `replicas` hashed points on [0, 1), each point owns the
// arc clockwise from itself (predecessor rule; the paper's arcs,
// direction is a convention), and a key hash resolves to the owner of
// its position through a jump index — O(1), branch-free, and
// allocation-free. A ringTopo is immutable after construction.
type ringTopo struct {
	replicas int
	bits     []uint64 // sorted point positions (jump form) + sentinel
	owner    []int32  // owner[i] = slot owning the i-th sorted point
	points   *jump.Index
}

// rpoint is one server replica's ring position during construction.
type rpoint struct {
	pos    uint64
	server int32
}

// buildRingTopo hashes the live servers onto the ring and indexes the
// sorted point set. With no live servers the topology is empty
// (points == nil) and must not receive Resolve calls.
func buildRingTopo(names []string, dead []bool, replicas, live int) *ringTopo {
	t := &ringTopo{replicas: replicas}
	pts := make([]rpoint, 0, live*replicas)
	for i, name := range names {
		if dead[i] {
			continue
		}
		for k := 0; k < replicas; k++ {
			pos := math.Float64bits(router.UnitFloat(router.Hash('s', k, name)))
			pts = append(pts, rpoint{pos: pos, server: int32(i)})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].pos != pts[b].pos {
			return pts[a].pos < pts[b].pos
		}
		return pts[a].server < pts[b].server // deterministic on (astronomically rare) ties
	})
	if len(pts) == 0 {
		return t
	}
	bits := make([]uint64, len(pts)+1)
	owner := make([]int32, len(pts))
	for i, p := range pts {
		bits[i] = p.pos
		owner[i] = p.server
	}
	bits[len(pts)] = jump.Inf64
	t.bits, t.owner = bits, owner
	t.points = jump.NewIndex(bits)
	return t
}

// Resolve returns the slot owning the ring position of hash h.
func (t *ringTopo) Resolve(h uint64) int32 {
	return t.owner[t.points.Locate(router.UnitFloat(h))]
}

// ResolveBlock is the bulk form of Resolve: the whole block of hashes
// goes through the jump index's block lookup, then the point->owner
// map. dst[i] == Resolve(hs[i]) for every i (pinned by
// TestBatchMatchesSequential in batch_test.go).
func (t *ringTopo) ResolveBlock(sc *router.ResolveScratch, hs []uint64, dst []int32) {
	us := sc.Floats(len(hs))
	for i, h := range hs {
		us[i] = router.UnitFloat(h)
	}
	t.points.LocateBlock(us, dst)
	for i, p := range dst {
		dst[i] = t.owner[p]
	}
}

// CheckTopology contributes the ring-specific structural checks to
// CheckInvariants.
func (t *ringTopo) CheckTopology(names []string, dead []bool, live int) error {
	for i := 1; i < len(t.bits)-1; i++ {
		if t.bits[i-1] > t.bits[i] {
			return fmt.Errorf("ring points unsorted")
		}
	}
	for _, s := range t.owner {
		if dead[s] {
			return fmt.Errorf("point owned by dead server %q", names[s])
		}
	}
	if t.points != nil && t.points.Len() != live*t.replicas {
		return fmt.Errorf("point count %d != live %d * replicas %d",
			t.points.Len(), live, t.replicas)
	}
	if t.points == nil && live > 0 {
		return fmt.Errorf("live ring with no point index")
	}
	return nil
}

// config collects the construction options.
type config struct {
	d        int
	replicas int
}

// Option configures New.
type Option func(*config) error

// WithChoices sets the number of hash choices per key (default 2).
func WithChoices(d int) Option {
	return func(c *config) error {
		c.d = d
		return nil
	}
}

// WithReplicas sets ring positions per server (default 1, the paper's
// single-point model; production consistent hashing often uses more —
// the Chord "virtual servers" remedy this library's d-choices makes
// unnecessary, kept for comparison). Distinct from SetReplication,
// which sets how many servers hold each key.
func WithReplicas(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("hashring: need replicas >= 1, got %d", k)
		}
		c.replicas = k
		return nil
	}
}

// Ring is a concurrent consistent-hashing ring with d-choice placement.
// Lookups (Place, Locate, Remove) may run from any number of goroutines
// concurrently with each other and with membership changes; membership
// ops and Rebalance serialize among themselves. The serving,
// replication, bounded-load, migration and metrics methods are the
// embedded router.Router's.
type Ring struct {
	*router.Router
	m        *router.Membership
	replicas int
}

// New builds a ring over the given servers, in one membership
// transaction: the servers take slots in order, at capacity 1, and the
// ring is built once. Server names must be non-empty and distinct.
func New(servers []string, opts ...Option) (*Ring, error) {
	cfg := config{d: 2, replicas: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	rt, m, err := router.New("hashring", cfg.d)
	if err != nil {
		return nil, err
	}
	r := &Ring{Router: rt, m: m, replicas: cfg.replicas}
	err = m.Update(journal.Entry{}, func(tx *router.Txn) (router.Topology, error) {
		for _, s := range servers {
			if _, err := tx.Add(s); err != nil {
				return nil, err
			}
		}
		return r.rebuild(tx), nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// rebuild constructs the ring topology for a transaction's membership.
func (r *Ring) rebuild(tx *router.Txn) router.Topology {
	return buildRingTopo(tx.Names(), tx.Dead(), r.replicas, tx.Live())
}

// AddServer hashes a new server onto the ring. Keys whose candidate
// owners change are NOT moved automatically; call Rebalance to restore
// placement invariants (split so callers control when migration cost is
// paid). Re-adding a removed server reuses its slot.
func (r *Ring) AddServer(name string) error { return r.addServer(name, 1) }

// addServer is AddServer at a given relative capacity (journal replay
// restores captured capacities through it).
func (r *Ring) addServer(name string, capacity float64) error {
	e := journal.Entry{Op: journal.OpAddServer, Name: name, Value: capacity}
	return r.m.Update(e, func(tx *router.Txn) (router.Topology, error) {
		if _, err := tx.AddWithCapacity(name, capacity); err != nil {
			return nil, err
		}
		return r.rebuild(tx), nil
	})
}

// RemoveServer takes a server off the ring. Its keys remain recorded
// but orphaned until Rebalance reassigns them. Removing the last server
// is an error.
func (r *Ring) RemoveServer(name string) error {
	e := journal.Entry{Op: journal.OpRemoveServer, Name: name}
	return r.m.Update(e, func(tx *router.Txn) (router.Topology, error) {
		if _, err := tx.Remove(name); err != nil {
			return nil, err
		}
		return r.rebuild(tx), nil
	})
}
