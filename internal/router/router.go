// Package router is the space-agnostic serving layer behind the
// repository's production-facing routers: everything the concurrent
// d-choice serving path needs EXCEPT the geometry.
//
// The paper's d-choice scheme is defined for any geometric space — the
// 1-D ring of Theorem 1, the k-D torus of Section 3 — and the serving
// machinery (snapshot publication, membership, load accounting, key
// records, rebalancing) is identical across them. This package owns
// that machinery once, parameterized over a small Topology interface
// that resolves a hashed key to the server slot owning its location;
// internal/hashring supplies the ring metric (jump-index arc lookup)
// and router.Geo (geo.go) the torus metric (grid nearest-site lookup).
// Each facade embeds the *Router, so the serving surface is the core's
// own, and keeps the Membership handle New returns beside it: the
// membership transactions, journal attachment, replay and restart that
// need the facade's topology or journal header. Embedding does not
// expose the handle.
//
// Every key operation runs one pipeline (pipeline.go): resolve the
// key's d candidates, select its record with the one d-choice rule
// (Snapshot.choose), and commit it under the key-shard lock with a
// write-ahead journal append. Scalar and batch calls share the
// per-key steps; Rebalance, Repair and migration share one audit walk
// and one record-swap step (reconcile.go).
//
// # Concurrency model
//
// The membership (server slot tables: names, capacities, dead flags,
// live count) and its Topology live in an immutable Snapshot published
// through an atomic.Pointer. Readers load the snapshot once per
// operation and resolve all d candidates against it, so a lookup can
// never observe a half-applied membership change and takes no lock on
// the topology. Membership changes serialize on a writer mutex, build
// a copy-on-write clone through a Txn, attach the topology the facade
// builds for the new membership, and publish atomically.
//
// Per-slot load is one counter per slot, on its own cache line and
// carried by pointer across snapshots; Place/Remove add to it
// atomically. Key records live in 64 hash-sharded key tables
// (keytable.go): writers on different shards take different locks, and
// Locate, LocateAny, Owners and LocateBatch read a table optimistically
// under its sequence number, writing no shared memory, and take its
// lock only after repeated conflicts with a writer. Candidate
// resolution itself never blocks on these shards. Place, Locate, and Remove on an unchanged membership are
// allocation-free provided Topology.Resolve is (both facades' are;
// AllocsPerRun-guarded in their tests).
package router

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"geobalance/internal/journal"
	"geobalance/internal/rng"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	// keyShardCount is the number of key-record tables.
	keyShardCount = 64

	// MaxChoices bounds d so the per-key choice index fits the compact
	// key record.
	MaxChoices = 127

	// MaxReplicas bounds the per-key replica count so a key record
	// stays a small fixed-size value: placements never allocate, and a
	// record packs into three words of its key-table entry. The
	// paper's d candidate locations are the replica sites, so r <= d
	// always; fleets wanting more durability than 4-way replication
	// want a storage system, not a placement router.
	MaxReplicas = 4
)

// Hash hashes a labeled, salted string with full 64-bit diffusion
// (inline FNV-1a over label || salt*phi (little-endian) || s, then a
// SplitMix64 finalizer; see internal/chord for why the finalizer
// matters). It is allocation-free, unlike hash/fnv's interface form.
// The router derives key candidate hashes as Hash('k', j, key);
// facades use other labels for their own derivations (the ring hashes
// server names under 's').
func Hash(label byte, salt int, s string) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(label)) * fnvPrime64
	x := uint64(salt) * 0x9e3779b97f4a7c15
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return rng.Mix64(h)
}

// UnitFloat maps a 64-bit hash to a float64 in [0, 1) (53-bit
// mantissa, the geometric spaces' native domain).
func UnitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// SlotLoad is one slot's load counter, padded to a 64-byte cache line
// so neighbouring slots' counters do not share one. The pointer is
// shared across snapshots, so counts survive membership changes
// without a stop-the-world transfer.
type SlotLoad struct {
	n atomic.Int64
	_ [56]byte
}

// Add adds delta to the counter.
func (l *SlotLoad) Add(delta int64) { l.n.Add(delta) }

// Total returns the counter.
func (l *SlotLoad) Total() int64 { return l.n.Load() }

// Topology resolves a hashed key to the server slot owning the
// location the hash maps to, against one immutable membership
// snapshot. Implementations must be safe for any number of concurrent
// Resolve calls (the serving path issues them lock-free) and are only
// called when the snapshot has at least one live slot. To keep the
// serving path allocation-free, Resolve must not allocate.
type Topology interface {
	Resolve(h uint64) int32
}

// TopologyChecker is the optional extension CheckInvariants uses to
// let a topology contribute its own structural checks: names/dead are
// the snapshot's slot tables and live its live-slot count.
type TopologyChecker interface {
	CheckTopology(names []string, dead []bool, live int) error
}

// Snapshot is an immutable membership snapshot. Every field except the
// counter *values* behind Loads is frozen once published; readers may
// therefore use a loaded snapshot without synchronization. The
// exported fields are shared, read-only views — mutating them is a
// data race with every concurrent reader.
type Snapshot struct {
	D     int
	R     int         // replicas per key, >= 1 (1 = single-owner; see SetReplication)
	Names []string    // all ever-added servers (slots are never reused for new names)
	Caps  []float64   // per-slot capacity (1 unless set)
	Dead  []bool      // removed servers keep their slot
	Drain []bool      // draining servers: serving reads, refusing new keys (nil until SetDraining)
	Loads []*SlotLoad // per-slot counters, shared by pointer across snapshots
	Live  int         // number of live servers

	// Bound is the bounded-load admission factor (0 = off; see
	// SetBoundedLoad), CapSum the total live capacity the c·mean
	// threshold is relative to, and Total the fleet-wide replica
	// counter (shared by pointer across snapshots, like Loads).
	Bound  float64
	CapSum float64
	Total  *SlotLoad

	Topo Topology // facade-built; nil only while Live == 0

	draining int              // number of live draining slots (fast path when 0)
	index    map[string]int32 // server name -> slot
	name     string           // owning router's name, for error text
}

// IsDraining reports whether slot s is draining.
func (t *Snapshot) IsDraining(s int32) bool {
	return t.draining > 0 && t.Drain[s]
}

// Slot returns the slot of a (live or dead) server name.
func (t *Snapshot) Slot(name string) (int32, bool) {
	i, ok := t.index[name]
	return i, ok
}

// RelLoad is the placement comparison key for slot s: load over
// capacity.
func (t *Snapshot) RelLoad(s int32) float64 {
	return float64(t.Loads[s].Total()) / t.Caps[s]
}

// setDrain sets slot i's draining mark, keeping the count in step.
func (t *Snapshot) setDrain(i int32, on bool) {
	if t.Drain == nil {
		if !on {
			return
		}
		t.Drain = make([]bool, len(t.Names))
	}
	if t.Drain[i] != on {
		t.Drain[i] = on
		if on {
			t.draining++
		} else {
			t.draining--
		}
	}
}

// liveCapSum totals the live slots' capacities.
func (t *Snapshot) liveCapSum() float64 {
	var sum float64
	for i, dead := range t.Dead {
		if !dead {
			sum += t.Caps[i]
		}
	}
	return sum
}

// clone copies the slot tables (sharing the counter pointers and the
// topology until the Txn replaces it).
func (t *Snapshot) clone() *Snapshot {
	nt := &Snapshot{
		D:        t.D,
		R:        t.R,
		Names:    append([]string(nil), t.Names...),
		Caps:     append([]float64(nil), t.Caps...),
		Dead:     append([]bool(nil), t.Dead...),
		Drain:    append([]bool(nil), t.Drain...),
		Loads:    append([]*SlotLoad(nil), t.Loads...),
		Live:     t.Live,
		Bound:    t.Bound,
		CapSum:   t.CapSum,
		Total:    t.Total,
		Topo:     t.Topo,
		draining: t.draining,
		index:    make(map[string]int32, len(t.index)),
		name:     t.name,
	}
	for k, v := range t.index {
		nt.index[k] = v
	}
	return nt
}

// keyRec records where a placed key's replicas live and which of the d
// hash choices each replica won. slots[0] is the primary (the least
// loaded at placement time); a single-owner router (R == 1) uses only
// the first entry. The record is a comparable fixed-size value, so
// storing it never allocates and a migration delta can re-validate a
// record with one == comparison.
type keyRec struct {
	n     int8              // replica count, 1 <= n <= MaxReplicas
	salts [MaxReplicas]int8 // choice index per replica
	slots [MaxReplicas]int32
}

// addLoads adjusts every replica's load counter (and the fleet-wide
// total the bounded-load mean is computed from) by delta.
func (rec *keyRec) addLoads(t *Snapshot, delta int64) {
	for i := 0; i < int(rec.n); i++ {
		t.Loads[rec.slots[i]].Add(delta)
	}
	t.Total.Add(delta * int64(rec.n))
}

// Router is the generic concurrent d-choice serving core. Lookups
// (Place, Locate, Remove) may run from any number of goroutines
// concurrently with each other and with membership changes; membership
// ops and Rebalance serialize among themselves. Facades embed it and
// build topologies through the Membership handle.
type Router struct {
	name  string
	mu    sync.Mutex // serializes membership writes and Rebalance
	snap  atomic.Pointer[Snapshot]
	met   atomic.Pointer[Metrics]     // nil when uninstrumented (see metrics.go)
	jl    atomic.Pointer[journal.Log] // nil when durability is off (see journal.go)
	bpool sync.Pool                   // *batchScratch, reused across batch calls (pipeline.go)
	keys  [keyShardCount]keyTable
}

// New builds an empty router and its Membership handle. name prefixes
// error messages (facades pass their package name, so callers see
// "hashring: ..." errors from the ring facade). d is the number of hash
// choices per key.
func New(name string, d int) (*Router, *Membership, error) {
	if d < 1 || d > MaxChoices {
		return nil, nil, fmt.Errorf("%s: need 1 <= d <= %d, got %d", name, MaxChoices, d)
	}
	r := &Router{name: name}
	for i := range r.keys {
		r.keys[i].arr.Store(newKeyArrays())
	}
	r.snap.Store(&Snapshot{D: d, R: 1, name: name, index: make(map[string]int32), Total: &SlotLoad{}})
	return r, &Membership{r: r}, nil
}

// Membership is the facade-only handle on a Router: membership
// transactions (the facade builds each new topology), journal
// attachment, replay and restart (the facade supplies the journal
// header and replays server adds). Only the facade that called New
// holds it.
type Membership struct {
	r *Router
}

// Snapshot returns the current immutable membership snapshot.
func (r *Router) Snapshot() *Snapshot { return r.snap.Load() }

// Choices returns the configured number of hash choices per key.
func (r *Router) Choices() int { return r.snap.Load().D }

// Txn is a membership mutation in progress: a copy-on-write clone of
// the snapshot that Membership.Update hands to the facade's mutation
// function. The accessors expose the post-mutation slot tables so the
// facade can build the matching topology.
type Txn struct {
	s *Snapshot
}

// Names returns the slot table (slot -> server name, dead slots
// included). The facade must treat it as read-only: the slice is
// published as part of the new snapshot.
func (tx *Txn) Names() []string { return tx.s.Names }

// Dead returns the per-slot dead flags (read-only, see Names).
func (tx *Txn) Dead() []bool { return tx.s.Dead }

// Live returns the live-slot count after the mutations so far.
func (tx *Txn) Live() int { return tx.s.Live }

// Slot returns the slot of a (live or dead) server name.
func (tx *Txn) Slot(name string) (int32, bool) { return tx.s.Slot(name) }

// IsLive reports whether slot i is live.
func (tx *Txn) IsLive(i int32) bool { return !tx.s.Dead[i] }

// Topology returns the pre-mutation topology — for transactions (like
// capacity changes) that leave the geometry untouched.
func (tx *Txn) Topology() Topology { return tx.s.Topo }

// Add adds a server at the default capacity 1, reviving its old slot
// if the name was previously removed, and returns the slot. Adding a
// live name or an empty name is an error.
func (tx *Txn) Add(name string) (int32, error) { return tx.AddWithCapacity(name, 1) }

// AddWithCapacity is Add with an explicit relative capacity: the
// d-choice comparison (and the bounded-load admission threshold) use
// load/capacity, so a capacity-2 server absorbs twice the keys of a
// capacity-1 server. Reviving a removed slot resets its capacity to
// the given value.
func (tx *Txn) AddWithCapacity(name string, capacity float64) (int32, error) {
	if name == "" {
		return 0, fmt.Errorf("%s: empty server name", tx.s.name)
	}
	if !(capacity > 0) {
		return 0, fmt.Errorf("%s: capacity %v must be positive", tx.s.name, capacity)
	}
	t := tx.s
	if i, ok := t.index[name]; ok {
		if !t.Dead[i] {
			return 0, fmt.Errorf("%s: duplicate server %q", t.name, name)
		}
		t.Dead[i] = false
		t.Caps[i] = capacity
		t.setDrain(i, false)
		t.Live++
		return i, nil
	}
	i := int32(len(t.Names))
	t.Names = append(t.Names, name)
	t.Caps = append(t.Caps, capacity)
	t.Dead = append(t.Dead, false)
	if t.Drain != nil {
		t.Drain = append(t.Drain, false)
	}
	t.Loads = append(t.Loads, &SlotLoad{})
	t.index[name] = i
	t.Live++
	return i, nil
}

// Remove marks a live server dead and returns its slot. Removing an
// unknown or dead name, or the last live server, is an error.
func (tx *Txn) Remove(name string) (int32, error) {
	t := tx.s
	i, ok := t.index[name]
	if !ok || t.Dead[i] {
		return 0, fmt.Errorf("%s: unknown server %q", t.name, name)
	}
	if t.Live == 1 {
		return 0, fmt.Errorf("%s: cannot remove the last server", t.name)
	}
	t.Dead[i] = true
	t.setDrain(i, false)
	t.Live--
	return i, nil
}

// Update applies one membership mutation: fn mutates a copy-on-write
// clone through the Txn and returns the Topology matching the mutated
// membership (which may be tx.Topology() when the geometry is
// unchanged). On error nothing is published. On success, with a
// journal attached and e.Op set, e is appended durably BEFORE the new
// snapshot publishes, so the log orders every membership change ahead
// of any placement made against it; a failed append fails the
// mutation with nothing published. Update serializes with other
// membership changes and Rebalance.
func (m *Membership) Update(e journal.Entry, fn func(tx *Txn) (Topology, error)) error {
	return m.r.update(e, fn)
}

func (r *Router) update(e journal.Entry, fn func(tx *Txn) (Topology, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	nt := r.snap.Load().clone()
	topo, err := fn(&Txn{s: nt})
	if err != nil {
		return err
	}
	nt.Topo = topo
	// CapSum is derived, not mutated: recompute from the post-mutation
	// slot tables so the bounded-load mean is always consistent with
	// the membership it publishes with.
	nt.CapSum = nt.liveCapSum()
	if e.Op != 0 {
		if lg := r.jl.Load(); lg != nil {
			if err := lg.Append(e); err != nil {
				return fmt.Errorf("%s: journal: %w", r.name, err)
			}
		}
	}
	r.snap.Store(nt)
	return nil
}

// SetCapacity declares a server's relative capacity (default 1); the
// d-choice comparison then uses load/capacity, so a capacity-2 server
// accepts twice the keys of a capacity-1 server before losing ties.
func (r *Router) SetCapacity(name string, capacity float64) error {
	if !(capacity > 0) {
		return fmt.Errorf("%s: capacity %v must be positive", r.name, capacity)
	}
	e := journal.Entry{Op: journal.OpSetCapacity, Name: name, Value: capacity}
	return r.update(e, func(tx *Txn) (Topology, error) {
		i, ok := tx.Slot(name)
		if !ok || !tx.IsLive(i) {
			return nil, fmt.Errorf("%s: unknown server %q", r.name, name)
		}
		tx.s.Caps[i] = capacity
		return tx.Topology(), nil
	})
}

// NumServers returns the number of live servers.
func (r *Router) NumServers() int { return r.snap.Load().Live }

// Servers returns the live server names in sorted order.
func (r *Router) Servers() []string {
	t := r.snap.Load()
	out := make([]string, 0, t.Live)
	for i, name := range t.Names {
		if !t.Dead[i] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// shardOf returns the index of a key's shard, from its first-choice
// hash; the shard's index is also its journal stripe.
func shardOf(h0 uint64) int { return int(h0 & (keyShardCount - 1)) }

// keyShardFor picks the record table for a key from its first-choice
// hash.
func (r *Router) keyShardFor(h0 uint64) *keyTable { return &r.keys[shardOf(h0)] }

// Loads returns a map of live server name to current key count.
func (r *Router) Loads() map[string]int64 {
	t := r.snap.Load()
	out := make(map[string]int64, t.Live)
	r.loadsInto(t, out)
	return out
}

// LoadsInto clears m and fills it with live server name -> key count.
// Unlike Loads it performs no allocation once m has grown to the
// membership size, so reporting loops can read the counters every tick
// without garbage. (Map keys share the snapshot's name strings.)
func (r *Router) LoadsInto(m map[string]int64) {
	clear(m)
	r.loadsInto(r.snap.Load(), m)
}

func (r *Router) loadsInto(t *Snapshot, m map[string]int64) {
	for i, name := range t.Names {
		if !t.Dead[i] {
			m[name] = t.Loads[i].Total()
		}
	}
}

// MaxLoad returns the largest key count over live servers.
func (r *Router) MaxLoad() int64 {
	t := r.snap.Load()
	var m int64
	for i := range t.Names {
		if !t.Dead[i] {
			if l := t.Loads[i].Total(); l > m {
				m = l
			}
		}
	}
	return m
}

// NumKeys returns the number of placed keys: the key tables' counts,
// summed.
func (r *Router) NumKeys() int {
	n := 0
	for i := range r.keys {
		n += r.keys[i].size()
	}
	return n
}

// CheckInvariants verifies internal consistency; exported for tests
// and harnesses. Call it at quiescence (no Place/Remove in flight);
// membership changes are excluded by its own locking. After membership
// churn or server failures, run Rebalance (or Repair) first — keys
// legitimately sit on captured regions or dead servers until then.
// Verified per key: every replica lives on a distinct live slot and
// resolves there at its recorded hash choice, and the replica count
// matches the configured factor (degraded to the number of distinct
// candidates when the geometry offers fewer). Load counters must equal
// the per-replica residency counts. When the topology implements
// TopologyChecker its own structural checks run too.
func (r *Router) CheckInvariants() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snap.Load()
	counts := make([]int64, len(t.Names))
	var (
		reps int64
		cb   [MaxChoices]int32
		err  error
	)
	for i := range r.keys {
		ks := &r.keys[i]
		ks.lock()
		total := 0
		ks.each(func(key string, h0 uint64, rec keyRec) {
			if err != nil {
				return
			}
			if h0 != Hash('k', 0, key) || h0&(keyShardCount-1) != uint64(i) {
				err = fmt.Errorf("key %q filed under h0 %#x in table %d", key, h0, i)
				return
			}
			if _, _, err = t.check(key, h0, rec, nil, &cb); err != nil {
				return
			}
			for j := 0; j < int(rec.n); j++ {
				counts[rec.slots[j]]++
			}
			total++
			reps += int64(rec.n)
		})
		if err == nil && total != ks.size() {
			err = fmt.Errorf("key table %d: %d records, count %d", i, total, ks.size())
		}
		ks.unlock()
		if err != nil {
			return err
		}
	}
	for i := range counts {
		if got := t.Loads[i].Total(); got != counts[i] {
			return fmt.Errorf("server %q: recorded load %d, actual %d",
				t.Names[i], got, counts[i])
		}
	}
	// The bounded-load bookkeeping must agree with ground truth: the
	// fleet-wide replica counter with the records, the capacity sum
	// with the live slot table, and the factor with SetBoundedLoad's
	// contract.
	if got := t.Total.Total(); got != reps {
		return fmt.Errorf("total load counter %d != %d placed replicas", got, reps)
	}
	if capSum := t.liveCapSum(); math.Abs(capSum-t.CapSum) > 1e-6*(1+capSum) {
		return fmt.Errorf("capacity sum %v != live capacities %v", t.CapSum, capSum)
	}
	if t.Bound != 0 && !(t.Bound > 1) {
		return fmt.Errorf("bounded-load factor %v outside {0} ∪ (1, ∞)", t.Bound)
	}
	if tc, ok := t.Topo.(TopologyChecker); ok {
		if err := tc.CheckTopology(t.Names, t.Dead, t.Live); err != nil {
			return err
		}
	}
	return nil
}
