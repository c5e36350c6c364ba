// Durability hooks: the optional write-ahead journal behind the
// serving core, on the same nil-checked atomic-pointer contract as the
// metrics instrument — a router with no journal attached pays one
// atomic pointer load and a predictable branch per mutation, nothing
// else, and never an allocation (guarded by TestJournalOffPlaceAllocs).
//
// With a journal attached, every mutation appends its record BEFORE it
// becomes visible: membership changes append inside the writer mutex
// just before the snapshot publishes, and key-record changes append
// under the key-shard lock, which is held until the append returns.
// The journal therefore totally orders the mutations it sees per key
// and orders every membership change before any placement made against
// it — exactly the ordering replay needs. Place and Remove (scalar and
// batch) are write-ahead in the strict sense (a failed append rolls the
// call back and fails it); Rebalance, Repair, and migration append
// without waiting for the fsync, because losing a tail update record is
// benign: the recovered router holds the key's previous record and the
// standard post-recovery Repair/Rebalance pass re-homes it, with no key
// lost.
//
// Replay installs recorded outcomes verbatim rather than re-running
// the d-choice rule, whose outcome depends on load counters and racing
// traffic. Slot indices are stable under total-order replay — slots
// are append-only and never reused for new names — so a recorded slot
// means the same server at replay time as it did at append time.
package router

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
)

// CoordsFunc reports the position of a slot for journal state capture
// (the geo facade supplies torus coordinates; nil for slots without a
// position, e.g. dead ones, and for the ring facade entirely).
type CoordsFunc func(t *Snapshot, slot int32) []float64

// SetJournal attaches (or, with nil, detaches) a journal. The log must
// already contain the router's current state (StartJournal and the
// Recover constructors guarantee this); attaching an empty journal to
// a non-empty router records only subsequent mutations.
func (m *Membership) SetJournal(lg *journal.Log) { m.r.jl.Store(lg) }

// Journal returns the attached journal (nil when durability is off).
func (r *Router) Journal() *journal.Log { return r.jl.Load() }

// stopWorld takes the writer mutex and then every key-shard lock, the
// order every other path takes them in, so no mutation or journal
// append runs until startWorld.
func (r *Router) stopWorld() {
	r.mu.Lock()
	r.lockShards(allShards)
}

func (r *Router) startWorld() {
	r.unlockShards(allShards)
	r.mu.Unlock()
}

// StartJournal creates a journal in dir — replacing any prior journal
// there — seeded with a full state snapshot captured stop-the-world,
// and attaches it, so every later mutation is recorded and the log is
// self-contained from this moment. The facade supplies its Header and
// CoordsFunc.
func (m *Membership) StartJournal(dir string, hdr journal.Header, coords CoordsFunc, opts journal.Options) (*journal.Log, error) {
	r := m.r
	r.stopWorld()
	defer r.startWorld()
	lg, err := journal.Create(dir, hdr, r.captureStateLocked(coords), opts)
	if err != nil {
		return nil, err
	}
	r.jl.Store(lg)
	return lg, nil
}

// CloseJournal flushes, closes and detaches the attached journal, the
// counterpart of StartJournal: the router keeps serving, and later
// mutations go unrecorded. A no-op when no journal is attached.
func (r *Router) CloseJournal() error {
	r.stopWorld()
	defer r.startWorld()
	if lg := r.jl.Swap(nil); lg != nil {
		return lg.Close()
	}
	return nil
}

// CompactJournal captures the current state stop-the-world and folds
// the attached journal's WAL into a fresh snapshot, bounding replay
// time. An error when no journal is attached.
func (m *Membership) CompactJournal(coords CoordsFunc) error {
	r := m.r
	r.stopWorld()
	defer r.startWorld()
	lg := r.jl.Load()
	if lg == nil {
		return fmt.Errorf("%s: no journal attached", r.name)
	}
	return lg.Compact(r.captureStateLocked(coords))
}

// Restart crashes the router and recovers it in place from its
// attached journal: stop the world, flush the journal, recover a fresh
// core from the journal's directory and options with the facade's load
// (its Recover constructor), check that the journal's header is hdr, then
// install the fresh core's snapshot, key records, key count and journal
// and close the old journal. Calls blocked on the locks resume against
// the recovered state; the metrics stay attached. Without a journal, or
// when recovery fails or finds another header, Restart returns an error
// and the router keeps its state and journal.
func (m *Membership) Restart(hdr journal.Header, load func(dir string, opts journal.Options) (*Router, *journal.Recovered, error)) (*journal.Recovered, error) {
	r := m.r
	r.stopWorld()
	defer r.startWorld()
	lg := r.jl.Load()
	if lg == nil {
		return nil, fmt.Errorf("%s: restart: no journal attached", r.name)
	}
	// A failed flush loses only what a crash would lose: recovery
	// replays the durable prefix.
	_ = lg.Sync()
	fresh, rec, err := load(lg.Dir(), lg.Options())
	if err != nil {
		return nil, err
	}
	if rec.Header != hdr {
		fresh.jl.Load().Close()
		return nil, fmt.Errorf("%s: restart: journal is for %+v, not %+v", r.name, rec.Header, hdr)
	}
	r.snap.Store(fresh.snap.Load())
	for i := range r.keys {
		r.keys[i].m = fresh.keys[i].m
	}
	r.nkeys.Store(fresh.nkeys.Load())
	r.jl.Store(fresh.jl.Load())
	// Nothing appended since the flush; the fresh journal owns the files.
	_ = lg.Close()
	return rec, nil
}

// captureStateLocked serializes the full router state as a replay
// sequence. Caller holds r.mu and every key-shard lock, so the capture
// is a consistent cut and the journal is quiescent.
//
// Entry order matters: first an add for EVERY slot in slot order —
// dead slots included, so replay reproduces the slot numbering key
// records reference — then removes for the dead slots (all adds first,
// so the last-live-server guard never trips mid-replay), then flags,
// then the key records in sorted order (determinism for tests; replay
// itself is order-independent across distinct keys).
func (r *Router) captureStateLocked(coords CoordsFunc) []journal.Entry {
	t := r.snap.Load()
	state := make([]journal.Entry, 0, len(t.Names)+int(r.nkeys.Load())+4)
	for i, name := range t.Names {
		e := journal.Entry{Op: journal.OpAddServer, Name: name, Value: t.Caps[i]}
		if coords != nil {
			e.Coords = coords(t, int32(i))
		}
		state = append(state, e)
	}
	for i, name := range t.Names {
		if t.Dead[i] {
			state = append(state, journal.Entry{Op: journal.OpRemoveServer, Name: name})
		}
	}
	for i, name := range t.Names {
		if !t.Dead[i] && t.Drain != nil && t.Drain[i] {
			state = append(state, journal.Entry{Op: journal.OpSetDraining, Name: name, Flag: true})
		}
	}
	if t.R > 1 {
		state = append(state, journal.Entry{Op: journal.OpSetReplication, Count: t.R})
	}
	if t.Bound > 0 {
		state = append(state, journal.Entry{Op: journal.OpSetBoundedLoad, Value: t.Bound})
	}
	keyAt := len(state)
	for i := range r.keys {
		for key, rec := range r.keys[i].m {
			state = append(state, journal.Entry{Op: journal.OpPlace, Name: key, Rec: recToJournal(rec)})
		}
	}
	keys := state[keyAt:]
	sort.Slice(keys, func(a, b int) bool { return keys[a].Name < keys[b].Name })
	return state
}

func recToJournal(rec keyRec) journal.Rec {
	jr := journal.Rec{N: int(rec.n)}
	for i := 0; i < int(rec.n); i++ {
		jr.Slots[i] = rec.slots[i]
		jr.Salts[i] = rec.salts[i]
	}
	return jr
}

// recFromJournal validates a journaled record against the slot table
// and converts it. Dead slots are legal — a record stranded on a dead
// server at capture or crash time replays as-is and the standard
// post-recovery Repair pass re-homes it.
func (t *Snapshot) recFromJournal(key string, jr journal.Rec) (keyRec, error) {
	if jr.N < 1 || jr.N > MaxReplicas {
		return keyRec{}, fmt.Errorf("key %q: replica count %d", key, jr.N)
	}
	rec := keyRec{n: int8(jr.N)}
	for i := 0; i < jr.N; i++ {
		s := jr.Slots[i]
		switch {
		case s < 0 || int(s) >= len(t.Names):
			return keyRec{}, fmt.Errorf("key %q: slot %d of %d", key, s, len(t.Names))
		case jr.Salts[i] < 0 || int(jr.Salts[i]) >= t.D:
			return keyRec{}, fmt.Errorf("key %q: choice index %d of %d", key, jr.Salts[i], t.D)
		case slices.Contains(jr.Slots[:i], s):
			return keyRec{}, fmt.Errorf("key %q: duplicate replica slot %d", key, s)
		}
		rec.slots[i], rec.salts[i] = s, jr.Salts[i]
	}
	return rec, nil
}

// Replay rebuilds state from recovered journal entries, in order: key
// records are installed verbatim, policy entries go through the
// router's setters, and server adds and removes through the facade's
// membership ops, which build the topology. Run it on a fresh router
// with no journal attached, so nothing is re-journaled. Every failure
// wraps journal.ErrCorrupt: a CRC-valid entry the router rejects
// (duplicate server, unplaced key, ...) means the log's contents are
// inconsistent, the same contract violation as a bad checksum.
func (m *Membership) Replay(es []journal.Entry, add func(e *journal.Entry) error, remove func(name string) error) error {
	r := m.r
	for i := range es {
		e := &es[i]
		var err error
		switch e.Op {
		case journal.OpAddServer:
			err = add(e)
		case journal.OpRemoveServer:
			err = remove(e.Name)
		case journal.OpSetCapacity:
			err = r.SetCapacity(e.Name, e.Value)
		case journal.OpSetDraining:
			err = r.SetDraining(e.Name, e.Flag)
		case journal.OpSetReplication:
			err = r.SetReplication(e.Count)
		case journal.OpSetBoundedLoad:
			err = r.SetBoundedLoad(e.Value)
		case journal.OpPlace, journal.OpUpdateRec, journal.OpRemoveKey:
			err = r.replayKey(e)
		default:
			err = fmt.Errorf("unknown op %d", e.Op)
		}
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) {
				err = &journal.CorruptError{Reason: err.Error()}
			}
			return fmt.Errorf("%s: replaying entry %d: %w", r.name, i, err)
		}
	}
	return nil
}

// replayKey installs one journaled placement, record update or removal
// and moves the load charge. A placement must find the key absent and
// the others present: a correct log removes before it re-places.
func (r *Router) replayKey(e *journal.Entry) error {
	h0 := Hash('k', 0, e.Name)
	ks := r.keyShardFor(h0)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	t := r.snap.Load()
	old, placed := ks.m[e.Name]
	switch {
	case placed && e.Op == journal.OpPlace:
		return fmt.Errorf("key %q placed twice", e.Name)
	case !placed && e.Op != journal.OpPlace:
		return fmt.Errorf("update or removal of unplaced key %q", e.Name)
	}
	var rec keyRec
	if e.Op != journal.OpRemoveKey {
		var err error
		if rec, err = t.recFromJournal(e.Name, e.Rec); err != nil {
			return err
		}
	}
	if placed {
		old.addLoads(t, h0, -1)
	} else {
		r.nkeys.Add(1)
	}
	if e.Op == journal.OpRemoveKey {
		delete(ks.m, e.Name)
		r.nkeys.Add(-1)
		return nil
	}
	rec.addLoads(t, h0, 1)
	ks.m[e.Name] = rec
	return nil
}

// geoCoords is the geo facade's CoordsFunc: live slots report their
// torus site, dead slots have no position (replay adds them at the
// origin before removing them again — only the slot number matters).
func geoCoords(t *Snapshot, slot int32) []float64 {
	gt, ok := t.Topo.(*geoTopo)
	if !ok {
		return nil
	}
	si := gt.slotSite[slot]
	if si < 0 {
		return nil
	}
	return gt.space.Site(int(si))
}

// header is the geo router's journal header.
func (g *Geo) header() journal.Header {
	return journal.Header{Kind: "geo", Dim: g.dim, D: g.Choices()}
}

// StartJournal makes the geo router durable: it creates a journal in
// dir (replacing any prior journal there) seeded with the full current
// state, attaches it, and records every subsequent mutation. Recover
// the router with RecoverGeo, or in place with Restart.
func (g *Geo) StartJournal(dir string, opts journal.Options) (*journal.Log, error) {
	return g.m.StartJournal(dir, g.header(), geoCoords, opts)
}

// CompactJournal folds the journal's WAL into a fresh snapshot; see
// Membership.CompactJournal.
func (g *Geo) CompactJournal() error { return g.m.CompactJournal(geoCoords) }

// Restart crashes the router and recovers it in place from its
// attached journal through RecoverGeo; see Membership.Restart.
func (g *Geo) Restart() (*journal.Recovered, error) {
	return g.m.Restart(g.header(), func(dir string, opts journal.Options) (*Router, *journal.Recovered, error) {
		fresh, rec, err := RecoverGeo(dir, opts)
		if err != nil {
			return nil, nil, err
		}
		return fresh.Router, rec, nil
	})
}

// RecoverGeo rebuilds a geographic router from the journal in dir —
// snapshot plus WAL replay — and returns it with the journal attached
// and positioned to append. The recovered router holds exactly the
// recorded state, which may include records stranded on dead servers
// (keys in flight when the crash hit); run Repair and Rebalance before
// CheckInvariants, as after any failure. Corruption beyond a torn WAL
// tail yields an error wrapping journal.ErrCorrupt.
func RecoverGeo(dir string, opts journal.Options) (*Geo, *journal.Recovered, error) {
	lg, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	var g *Geo
	if rec.Header.Kind != "geo" {
		err = &journal.CorruptError{Reason: fmt.Sprintf("journal is for a %q router, not geo", rec.Header.Kind)}
	} else if g, err = NewGeo(rec.Header.Dim, rec.Header.D); err != nil {
		err = &journal.CorruptError{Reason: err.Error()}
	} else {
		err = g.m.Replay(rec.Entries, g.replayAdd, g.RemoveServer)
	}
	if err != nil {
		lg.Close()
		return nil, nil, err
	}
	g.m.SetJournal(lg)
	return g, rec, nil
}

// replayAdd replays a server add. Dead slots are captured without
// coordinates and come back at the origin until their removal replays:
// only the slot number matters.
func (g *Geo) replayAdd(e *journal.Entry) error {
	at := e.Coords
	if at == nil {
		at = make(geom.Vec, g.dim)
	}
	return g.AddServerWithCapacity(e.Name, at, e.Value)
}
