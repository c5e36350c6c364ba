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
// cache-line-padded sharded load counters, hash-sharded key records,
// the resolve → select → commit serving pipeline behind
// Place/Locate/Remove and their batch forms, Rebalance/Repair and
// journal replay — is the space-agnostic serving core in
// internal/router, shared verbatim with the torus-backed router.Geo.
// The Ring methods forward to it.
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
// snapshot, and publish it atomically.
//
// Per-server load is kept in sharded counters (each shard on its own
// cache line to avoid false sharing) that are carried by pointer across
// snapshots; Place/Remove touch one shard with an atomic add, and
// Loads/MaxLoad/Rebalance fold the shards on demand. Key records are
// held in a hash-sharded map so concurrent Place/Locate/Remove on
// different keys rarely contend; the candidate resolution itself never
// blocks on these shards.
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
	"geobalance/internal/metrics"
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
// unnecessary, kept for comparison).
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
// ops and Rebalance serialize among themselves.
type Ring struct {
	rt       *router.Router
	replicas int
}

// New builds a ring over the given servers. Server names must be
// non-empty and distinct.
func New(servers []string, opts ...Option) (*Ring, error) {
	cfg := config{d: 2, replicas: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	rt, err := router.New("hashring", cfg.d)
	if err != nil {
		return nil, err
	}
	r := &Ring{rt: rt, replicas: cfg.replicas}
	for _, s := range servers {
		if err := r.AddServer(s); err != nil {
			return nil, err
		}
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
	return r.rt.UpdateJournaled(e, func(tx *router.Txn) (router.Topology, error) {
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
	return r.rt.UpdateJournaled(e, func(tx *router.Txn) (router.Topology, error) {
		if _, err := tx.Remove(name); err != nil {
			return nil, err
		}
		return r.rebuild(tx), nil
	})
}

// SetCapacity declares a server's relative capacity (default 1); the
// d-choice comparison then uses load/capacity, so a capacity-2 server
// accepts twice the keys of a capacity-1 server before losing ties.
func (r *Ring) SetCapacity(name string, capacity float64) error {
	return r.rt.SetCapacity(name, capacity)
}

// SetBoundedLoad enables (c > 1) or disables (c == 0) bounded-load
// admission: placements forward past candidates above c times the
// capacity-relative mean load and fail with router.ErrOverloaded when
// every candidate is saturated; see router.Router.SetBoundedLoad.
func (r *Ring) SetBoundedLoad(c float64) error { return r.rt.SetBoundedLoad(c) }

// BoundedLoad returns the active bounded-load factor (0 = off).
func (r *Ring) BoundedLoad() float64 { return r.rt.BoundedLoad() }

// MeanRelLoad returns the capacity-relative mean load; see
// router.Router.MeanRelLoad.
func (r *Ring) MeanRelLoad() float64 { return r.rt.MeanRelLoad() }

// MaxRelLoad returns the largest load/capacity ratio over live
// servers; see router.Router.MaxRelLoad.
func (r *Ring) MaxRelLoad() float64 { return r.rt.MaxRelLoad() }

// SetReplication sets the replicas-per-key factor: each key is pinned
// to the top-r of its d ring candidates; see
// router.Router.SetReplication. Distinct from VirtualNodes, which
// multiplies a server's ring positions.
func (r *Ring) SetReplication(rep int) error { return r.rt.SetReplication(rep) }

// Replication returns the configured replicas-per-key factor.
func (r *Ring) Replication() int { return r.rt.Replication() }

// SetDraining marks a server draining (serving reads, refusing new
// keys) or clears the mark; see router.Router.SetDraining.
func (r *Ring) SetDraining(name string, draining bool) error {
	return r.rt.SetDraining(name, draining)
}

// PlaceReplicated is Place returning the replica count alongside the
// primary; see router.Router.PlaceReplicated.
func (r *Ring) PlaceReplicated(key string) (string, int, error) {
	return r.rt.PlaceReplicated(key)
}

// LocateAny returns a live server holding the key, failing over past
// dead or draining replicas; see router.Router.LocateAny.
func (r *Ring) LocateAny(key string) (string, error) { return r.rt.LocateAny(key) }

// Owners appends the key's recorded replica owners to dst; see
// router.Router.Owners.
func (r *Ring) Owners(key string, dst []string) ([]string, error) {
	return r.rt.Owners(key, dst)
}

// Repair replaces the replicas lost to failures while leaving healthy
// replicas in place; see router.Router.Repair.
func (r *Ring) Repair() (repaired, lost int) { return r.rt.Repair() }

// PlanMigration computes the write-log of key moves that would restore
// the placement invariants; see router.Router.PlanMigration.
func (r *Ring) PlanMigration(limit int) *router.MigrationPlan {
	return r.rt.PlanMigration(limit)
}

// SetMetrics attaches (or detaches) an instrument set; see
// router.Router.SetMetrics.
func (r *Ring) SetMetrics(m *router.Metrics) { r.rt.SetMetrics(m) }

// RegisterSlotLoads registers the scrape-time load collectors; see
// router.Router.RegisterSlotLoads.
func (r *Ring) RegisterSlotLoads(reg *metrics.Registry) { r.rt.RegisterSlotLoads(reg) }

// Instrument builds, attaches, and registers the full instrument set;
// see router.Router.Instrument.
func (r *Ring) Instrument(reg *metrics.Registry) *router.Metrics { return r.rt.Instrument(reg) }

// NumServers returns the number of live servers.
func (r *Ring) NumServers() int { return r.rt.NumServers() }

// Servers returns the live server names in sorted order.
func (r *Ring) Servers() []string { return r.rt.Servers() }

// Choices returns the configured number of hash choices per key.
func (r *Ring) Choices() int { return r.rt.Choices() }

// Place assigns a key to the least-loaded of its d candidate servers
// and returns the server name. Placing an already-placed key is an
// error (keys are sticky; see Locate). Safe for concurrent use; see
// router.Router.Place for the exact racing-membership semantics.
func (r *Ring) Place(key string) (string, error) { return r.rt.Place(key) }

// Locate returns the server currently holding a placed key.
func (r *Ring) Locate(key string) (string, error) { return r.rt.Locate(key) }

// Remove deletes a placed key.
func (r *Ring) Remove(key string) error { return r.rt.Remove(key) }

// Rebalance restores the placement invariant after membership changes:
// every key must live at the owner of its recorded hash choice; keys on
// dead servers or captured arcs are re-placed at their least-loaded
// current candidate. Returns the number of keys moved. See
// router.Router.Rebalance for the concurrency contract.
func (r *Ring) Rebalance() int { return r.rt.Rebalance() }

// Loads returns a map of live server name to current key count, folding
// the counter shards on demand.
func (r *Ring) Loads() map[string]int64 { return r.rt.Loads() }

// LoadsInto clears m and fills it with live server name -> key count
// without allocating once m has grown to the membership size — the
// reporting-loop counterpart of Loads.
func (r *Ring) LoadsInto(m map[string]int64) { r.rt.LoadsInto(m) }

// MaxLoad returns the largest key count over live servers.
func (r *Ring) MaxLoad() int64 { return r.rt.MaxLoad() }

// NumKeys returns the number of placed keys.
func (r *Ring) NumKeys() int { return r.rt.NumKeys() }

// PlaceBatch places a block of keys through the bulk serving path —
// one snapshot load, one jump-index block resolve, one shard lock
// round, one journal group commit; see router.Router.PlaceBatch.
func (r *Ring) PlaceBatch(keys []string, out []router.BatchResult) { r.rt.PlaceBatch(keys, out) }

// LocateBatch looks up a block of placed keys; see
// router.Router.LocateBatch.
func (r *Ring) LocateBatch(keys []string, out []router.BatchResult) { r.rt.LocateBatch(keys, out) }

// RemoveBatch deletes a block of placed keys; see
// router.Router.RemoveBatch.
func (r *Ring) RemoveBatch(keys []string, out []router.BatchResult) { r.rt.RemoveBatch(keys, out) }

// CheckInvariants verifies internal consistency; exported for tests.
// Call it at quiescence (no Place/Remove in flight); membership changes
// are excluded by its own locking. After membership churn, run
// Rebalance first — keys legitimately sit on captured arcs or dead
// servers until then.
func (r *Ring) CheckInvariants() error { return r.rt.CheckInvariants() }
