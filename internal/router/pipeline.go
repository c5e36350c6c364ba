// The serving pipeline. Every key operation runs the same three stages:
//
//   - resolve: a key's d choice hashes to the slots owning them, against
//     one snapshot — Snapshot.resolve per key, resolveBlock for a block
//     (through the topology's BlockTopology kernel when it has one);
//   - select: Snapshot.choose, the one d-choice rule — distinct
//     candidates, the drain filter, bounded-load admission and the
//     stable top-R by relative load, in a single scan;
//   - commit: the per-key place and remove steps under the held
//     key-shard lock, then, with a journal attached, one write-ahead
//     stage of the call's records on their shards' journal stripes
//     (every step rolled back if the journal refuses it), and the
//     metrics tally after the locks go.
//
// Scalar Place/Remove run the steps once, under one shard lock.
// PlaceBatch/RemoveBatch loop the same steps over a block in input
// order, under one lock round that takes every involved shard in
// ascending order, so a batch traces exactly like the scalar loop (later
// keys see earlier keys' load) with one bulk resolve and one journal
// stage. Every multi-shard path (the batches and the stop-the-world
// journal paths) locks shards in ascending order and every other path
// holds at most one, so there is no lock-order cycle; the journal
// locks a call's stripes in ascending order too, after the shards.
// Holding the locks across the stage is the write-ahead rule: no
// change becomes visible before its record is logged (and, in sync
// mode, durable). The lock-free readers keep it too, since a held
// shard lock keeps the shard's sequence odd (keytable.go).
package router

import (
	"fmt"
	"math"

	"geobalance/internal/journal"
	"geobalance/internal/torus"
)

// resolve is the scalar resolve stage: buf[j] becomes the owner of the
// key's j-th choice hash (h0 = Hash('k', 0, key)). The snapshot must
// have a live slot.
func (t *Snapshot) resolve(key string, h0 uint64, buf *[MaxChoices]int32) []int32 {
	cands := buf[:t.D]
	cands[0] = t.Topo.Resolve(h0)
	for j := 1; j < t.D; j++ {
		cands[j] = t.Topo.Resolve(Hash('k', j, key))
	}
	return cands
}

// choose is the select stage, the d-choice rule every path shares.
// cands[j] is the owner of the key's j-th choice hash. Duplicates count
// once, at their first choice index. Draining candidates are passed over
// while a serving one exists. The record keeps the min(R, candidates
// left) least relatively loaded, ties toward the lower choice index, so
// slots[0] is the primary. loads, when non-nil, stands in for the live
// counters (the migration planner simulates its own moves). With admit
// and bounded-load admission on, a candidate whose post-placement load
// would pass ceil(c·m·cap/capSum) is forwarded past (counted in skipped);
// when too few admissible candidates remain for the full record, choose
// rejects: rec.n == 0, with the least-loaded candidate's overshoot of
// the threshold for the retry hint.
func (t *Snapshot) choose(cands []int32, loads []int64, admit bool) (rec keyRec, skipped int, overshoot float64) {
	admit = admit && t.Bound > 0
	var limit float64
	if admit {
		limit = t.Bound * float64(t.Total.Total()+1) / t.CapSum
	}
	// The drain filter applies when some candidate is serving.
	filter := false
	if t.draining > 0 {
		for _, s := range cands {
			if !t.Drain[s] {
				filter = true
				break
			}
		}
	}
	var (
		rels       [MaxReplicas]float64 // kept candidates' relative loads, ascending
		kept, want int
		minRel     = math.Inf(1)
	)
next:
	for j, s := range cands {
		for _, q := range cands[:j] {
			if q == s {
				continue next
			}
		}
		eligible := !filter || !t.Drain[s]
		if eligible {
			want++
		}
		var load int64
		if loads != nil {
			load = loads[s]
		} else {
			load = t.Loads[s].Total()
		}
		rel := float64(load) / t.Caps[s]
		if admit {
			minRel = min(minRel, rel)
			if float64(load+1) > math.Ceil(limit*t.Caps[s]) {
				skipped++
				continue
			}
		}
		if !eligible {
			continue
		}
		// Stable insertion: after every kept candidate at most as loaded.
		k := kept
		for k > 0 && rel < rels[k-1] {
			k--
		}
		if k == t.R {
			continue
		}
		kept = min(kept+1, t.R)
		for m := kept - 1; m > k; m-- {
			rels[m], rec.slots[m], rec.salts[m] = rels[m-1], rec.slots[m-1], rec.salts[m-1]
		}
		rels[k], rec.slots[k], rec.salts[k] = rel, s, int8(j)
	}
	want = min(want, t.R)
	if kept < want {
		// Too few admissible candidates for a full record: reject rather
		// than place a degraded set, which a Repair would then fill onto
		// the very servers admission refused.
		return keyRec{}, skipped, minRel / limit
	}
	rec.n = int8(want)
	return rec, skipped, 0
}

// undo is one committed key step, kept for the journal step and its
// rollback.
type undo struct {
	key string
	h0  uint64
	rec keyRec // the record placed or removed
	at  int    // the key's index in a batch
}

// commit is one call's commit stage under the held shard locks.
type commit struct {
	r       *Router
	t       *Snapshot
	lg      *journal.Log
	placing bool
	ents    []journal.Entry // a batch's journal entry buffer
	at      []int           // each entry's key shard, its journal stripe
	out     []BatchResult   // a batch's results, failed by a rollback

	// The tally, which report publishes after the shard locks.
	keys, forwards, rejects int64
}

func (r *Router) begin(t *Snapshot, placing bool) commit {
	return commit{r: r, t: t, lg: r.jl.Load(), placing: placing}
}

// place is the per-key place step: refuse a duplicate, select the record
// from cands, then charge and store it. The caller holds the key's shard
// lock and, with a journal attached, passes the step to journal. A
// record the journal could not read back (journal.ErrInvalidEntry) is
// refused here, before the key is charged, so it fails only its own key
// and never the journal unit of a batch.
func (c *commit) place(ks *keyTable, key string, h0 uint64, cands []int32) (keyRec, error) {
	_, dup, at := ks.getLocked(h0, key)
	if dup {
		return keyRec{}, fmt.Errorf("%s: key %q already placed", c.r.name, key)
	}
	rec, skipped, overshoot := c.t.choose(cands, nil, true)
	if rec.n > 0 && c.lg != nil {
		e := c.entry(undo{key: key, rec: rec})
		if err := journal.CheckEntry(&e); err != nil {
			return keyRec{}, fmt.Errorf("%s: journal: %w", c.r.name, err)
		}
	}
	c.forwards += int64(skipped)
	if rec.n == 0 {
		c.rejects++
		return rec, &OverloadedError{Router: c.r.name, Key: key, RetryAfter: retryAfter(overshoot)}
	}
	rec.addLoads(c.t, 1)
	ks.set(at, h0, key, rec)
	c.keys++
	return rec, nil
}

// remove is the per-key remove step: delete the record and uncharge
// it. The caller holds the key's shard lock and, with a journal
// attached, passes the step to journal.
func (c *commit) remove(ks *keyTable, key string, h0 uint64) (keyRec, error) {
	rec, ok := ks.del(h0, key)
	if !ok {
		return rec, fmt.Errorf("%s: key %q not placed", c.r.name, key)
	}
	rec.addLoads(c.t, -1)
	c.keys--
	return rec, nil
}

// journal is the write-ahead step: it stages the steps' records on the
// journal stripes of their key shards, as one unit. If the journal
// refuses them, every step is rolled back, its batch result is failed,
// and the error is returned. Called with a journal attached and the
// shard locks still held.
func (c *commit) journal(steps []undo) error {
	var err error
	if len(steps) == 1 {
		u := steps[0]
		err = c.lg.AppendStriped([]int{shardOf(u.h0)}, []journal.Entry{c.entry(u)}, false)
	} else {
		c.ents, c.at = c.ents[:0], c.at[:0]
		for _, u := range steps {
			c.ents = append(c.ents, c.entry(u))
			c.at = append(c.at, shardOf(u.h0))
		}
		err = c.lg.AppendStriped(c.at, c.ents, false)
	}
	if err == nil {
		return nil
	}
	err = fmt.Errorf("%s: journal: %w", c.r.name, err)
	for _, u := range steps {
		ks := c.r.keyShardFor(u.h0)
		if c.placing {
			ks.del(u.h0, u.key)
			u.rec.addLoads(c.t, -1)
			c.keys--
		} else {
			ks.put(u.h0, u.key, u.rec)
			u.rec.addLoads(c.t, 1)
			c.keys++
		}
		if c.out != nil {
			c.out[u.at] = BatchResult{Err: err}
		}
	}
	return err
}

// entry is the journal record of a step.
func (c *commit) entry(u undo) journal.Entry {
	if c.placing {
		return journal.Entry{Op: journal.OpPlace, Name: u.key, Rec: recToJournal(u.rec)}
	}
	return journal.Entry{Op: journal.OpRemoveKey, Name: u.key}
}

// report publishes the call's tally to the metrics, after the shard
// locks are released. h is the counter shard hint.
func (c *commit) report(h uint64) {
	m := c.r.met.Load()
	if m == nil {
		return
	}
	if c.keys > 0 {
		m.Places.Add(h, c.keys)
	} else if c.keys < 0 {
		m.Removes.Add(h, -c.keys)
	}
	if c.forwards > 0 {
		m.Forwards.Add(h, c.forwards)
	}
	if c.rejects > 0 {
		m.Rejects.Add(h, c.rejects)
	}
}

// place is the scalar placement behind Place and PlaceReplicated. The
// snapshot is loaded under the key-shard lock, so a Rebalance that
// already visited this shard cannot race an older snapshot in.
func (r *Router) place(key string) (*Snapshot, keyRec, error) {
	h0 := Hash('k', 0, key)
	ks := r.keyShardFor(h0)
	var (
		cb  [MaxChoices]int32
		rec keyRec
		err error
	)
	ks.lock()
	c := r.begin(r.snap.Load(), true)
	if c.t.Live == 0 {
		err = fmt.Errorf("%s: no servers", r.name)
	} else if rec, err = c.place(ks, key, h0, c.t.resolve(key, h0, &cb)); err == nil && c.lg != nil {
		err = c.journal([]undo{{key: key, h0: h0, rec: rec}})
	}
	ks.unlock()
	c.report(h0)
	return c.t, rec, err
}

// Place assigns a key to the least-loaded of its d candidate servers
// (and, when replication is configured, mirrors it onto the next R-1
// least-loaded distinct candidates) and returns the primary server
// name. Placing an already-placed key is an error (keys are sticky;
// see Locate). Safe for concurrent use; the candidate set is resolved
// against one membership snapshot. A Place overlapping a membership
// removal may still record the just-removed server (the snapshots are
// deliberately wait-free); such keys are orphaned exactly like keys
// stranded by the removal itself and re-homed by the next Rebalance or
// Repair. With bounded-load admission active (SetBoundedLoad), a key
// whose candidates are all saturated is NOT placed and the error wraps
// ErrOverloaded.
func (r *Router) Place(key string) (string, error) {
	t, rec, err := r.place(key)
	if err != nil {
		return "", err
	}
	return t.Names[rec.slots[0]], nil
}

// PlaceReplicated is Place returning the replica count alongside the
// primary: the key is pinned to the top-R of its d geometric
// candidates (fewer when the candidate hashes resolve to fewer
// distinct live servers). Allocation-free; use Owners for the full
// owner list.
func (r *Router) PlaceReplicated(key string) (string, int, error) {
	t, rec, err := r.place(key)
	if err != nil {
		return "", 0, err
	}
	return t.Names[rec.slots[0]], int(rec.n), nil
}

// Locate returns the primary server currently recorded for a placed
// key, dead or not — it reads only the record. Failover reads that
// skip dead and draining replicas are LocateAny.
func (r *Router) Locate(key string) (string, error) {
	h0 := Hash('k', 0, key)
	pr := r.keyShardFor(h0).get(h0, key)
	if !pr.ok() {
		return "", fmt.Errorf("%s: key %q not placed", r.name, key)
	}
	if m := r.met.Load(); m != nil {
		m.Locates.Inc(h0)
	}
	return r.snap.Load().Names[pr.primary()], nil
}

// Remove deletes a placed key from every replica.
func (r *Router) Remove(key string) error {
	h0 := Hash('k', 0, key)
	ks := r.keyShardFor(h0)
	ks.lock()
	c := r.begin(r.snap.Load(), false)
	rec, err := c.remove(ks, key, h0)
	if err == nil && c.lg != nil {
		err = c.journal([]undo{{key: key, h0: h0, rec: rec}})
	}
	ks.unlock()
	c.report(h0)
	return err
}

// BatchResult is one key's outcome in a batch operation. Exactly one
// of Server/Err is meaningful: Err nil means the operation succeeded
// and Server names the key's primary. N is the key's replica count
// (placements and removals; 0 for LocateBatch misses and errors).
type BatchResult struct {
	Server string
	N      int
	Err    error
}

func result(t *Snapshot, rec keyRec, err error) BatchResult {
	if err != nil {
		return BatchResult{Err: err}
	}
	return BatchResult{Server: t.Names[rec.slots[0]], N: int(rec.n)}
}

// BlockTopology is the optional Topology extension the batch path uses
// to resolve a block of hashes in one call: dst[i] must equal
// Resolve(hs[i]) for every i (pinned by the facades' equality tests).
// Implementations may use the scratch's buffers freely; the router
// pools scratches, so ResolveBlock must not retain them. Topologies
// without the extension are resolved hash-by-hash.
type BlockTopology interface {
	ResolveBlock(sc *ResolveScratch, hs []uint64, dst []int32)
}

// ResolveScratch carries the reusable buffers a BlockTopology needs:
// a grow-on-demand float block plus the torus batch kernel's scratch.
// Zero value ready; buffers grow to the largest batch and are reused
// across calls.
type ResolveScratch struct {
	f64 []float64

	// Torus is the cell-sort scratch for torus.NearestBatchInto.
	Torus torus.BatchScratch
}

// Floats returns the scratch's float buffer resized to n.
func (sc *ResolveScratch) Floats(n int) []float64 {
	sc.f64 = grow(sc.f64, n)
	return sc.f64
}

// batchScratch is the pooled per-call state of a batch operation.
type batchScratch struct {
	h0s   []uint64        // per-key first-choice hash
	hs    []uint64        // q*D candidate hashes, key-major
	cand  []int32         // q*D resolved candidate slots
	ents  []journal.Entry // write-ahead records for the batch
	at    []int           // the records' journal stripes
	steps []undo          // journaled steps, for rollback
	res   ResolveScratch
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// batchStart checks the result slice, takes a pooled scratch and hashes
// the keys; nil for an empty batch.
func (r *Router) batchStart(op string, keys []string, out []BatchResult) *batchScratch {
	if len(out) != len(keys) {
		panic(fmt.Sprintf("%s: %s with %d results for %d keys", r.name, op, len(out), len(keys)))
	}
	if len(keys) == 0 {
		return nil
	}
	sc, ok := r.bpool.Get().(*batchScratch)
	if !ok {
		sc = new(batchScratch)
	}
	sc.h0s = grow(sc.h0s, len(keys))
	for i, key := range keys {
		sc.h0s[i] = Hash('k', 0, key)
	}
	return sc
}

// batchEnd pools the scratch with the buffers the commit grew. Entries
// and undo records reference caller key strings; they are dropped so
// the pool does not pin an old batch's keys.
func (r *Router) batchEnd(sc *batchScratch, c *commit, steps []undo) {
	clear(c.ents)
	clear(steps)
	sc.ents, sc.at, sc.steps = c.ents[:0], c.at[:0], steps[:0]
	r.bpool.Put(sc)
}

// allShards is the shard mask of every key shard.
const allShards = ^uint64(0)

// shardMask returns the bitmask of key shards the hashes touch
// (keyShardCount is 64, exactly a uint64 of shards).
func shardMask(h0s []uint64) uint64 {
	var mask uint64
	for _, h := range h0s {
		mask |= 1 << (h & (keyShardCount - 1))
	}
	return mask
}

// lockShards write-locks every shard in mask in ascending order.
func (r *Router) lockShards(mask uint64) {
	for i := 0; i < keyShardCount; i++ {
		if mask&(1<<uint(i)) != 0 {
			r.keys[i].lock()
		}
	}
}

func (r *Router) unlockShards(mask uint64) {
	for i := 0; i < keyShardCount; i++ {
		if mask&(1<<uint(i)) != 0 {
			r.keys[i].unlock()
		}
	}
}

// resolveBlock is the block resolve stage: sc.cand receives every key's
// D candidate slots (key-major) against snapshot t, through the
// topology's block kernel when it has one.
func (r *Router) resolveBlock(sc *batchScratch, t *Snapshot, keys []string) {
	d := t.D
	sc.hs = grow(sc.hs, len(keys)*d)
	hs := sc.hs
	for i, key := range keys {
		hs[i*d] = sc.h0s[i]
		for j := 1; j < d; j++ {
			hs[i*d+j] = Hash('k', j, key)
		}
	}
	sc.cand = grow(sc.cand, len(keys)*d)
	if bt, ok := t.Topo.(BlockTopology); ok {
		bt.ResolveBlock(&sc.res, hs, sc.cand)
	} else {
		for i, h := range hs {
			sc.cand[i] = t.Topo.Resolve(h)
		}
	}
}

// PlaceBatch places a block of keys with one bulk candidate resolve,
// one lock round over the involved key shards, and one write-ahead
// journal stage. out[i] reports key i's outcome; len(out) must equal
// len(keys). Each key behaves exactly as a scalar Place issued in
// input order would: sticky-duplicate and bounded-load rejections land
// in out[i].Err (rejections wrap ErrOverloaded) without failing the
// rest of the batch, replication and draining rules match, and later
// keys in the batch observe earlier keys' load. A key whose record the
// journal could not read back fails alone with journal.ErrInvalidEntry,
// like the other per-key rejections; any other journal refusal rolls
// the whole batch back and fails every admitted key.
func (r *Router) PlaceBatch(keys []string, out []BatchResult) {
	sc := r.batchStart("PlaceBatch", keys, out)
	if sc == nil {
		return
	}
	mask := shardMask(sc.h0s)
	// Optimistic bulk resolve outside the locks, kept only if the
	// snapshot is unchanged once we hold them (the scalar path's
	// load-under-lock rule, batch-wide).
	t := r.snap.Load()
	if t.Live > 0 {
		r.resolveBlock(sc, t, keys)
	}
	r.lockShards(mask)
	if t2 := r.snap.Load(); t2 != t {
		if t = t2; t.Live > 0 {
			r.resolveBlock(sc, t, keys)
		}
	}
	c := r.begin(t, true)
	c.ents, c.at, c.out = sc.ents, sc.at, out
	steps := sc.steps[:0]
	for i, key := range keys {
		if t.Live == 0 {
			out[i] = BatchResult{Err: fmt.Errorf("%s: no servers", r.name)}
			continue
		}
		h0 := sc.h0s[i]
		rec, err := c.place(r.keyShardFor(h0), key, h0, sc.cand[i*t.D:(i+1)*t.D])
		out[i] = result(t, rec, err)
		if err == nil && c.lg != nil {
			steps = append(steps, undo{key, h0, rec, i})
		}
	}
	if len(steps) > 0 {
		c.journal(steps)
	}
	r.unlockShards(mask)
	c.report(sc.h0s[0])
	r.batchEnd(sc, &c, steps)
}

// LocateBatch looks up a block of placed keys against one snapshot
// load, each read as the scalar Locate reads it. out[i] receives key
// i's recorded primary (dead or not — the scalar Locate contract) or a
// not-placed error; len(out) must equal len(keys).
func (r *Router) LocateBatch(keys []string, out []BatchResult) {
	sc := r.batchStart("LocateBatch", keys, out)
	if sc == nil {
		return
	}
	defer r.bpool.Put(sc)
	t := r.snap.Load()
	var served int64
	for i, key := range keys {
		h0 := sc.h0s[i]
		pr := r.keyShardFor(h0).get(h0, key)
		if !pr.ok() {
			out[i] = BatchResult{Err: fmt.Errorf("%s: key %q not placed", r.name, key)}
			continue
		}
		out[i] = result(t, pr.rec(), nil)
		served++
	}
	if m := r.met.Load(); m != nil && served > 0 {
		m.Locates.Add(sc.h0s[0], served)
	}
}

// RemoveBatch deletes a block of placed keys with one lock round over
// the involved key shards and one write-ahead journal stage. out[i]
// reports key i's outcome (Server is the removed primary); unplaced
// keys get a not-placed error without failing the rest. A journal
// refusal rolls the whole batch back.
func (r *Router) RemoveBatch(keys []string, out []BatchResult) {
	sc := r.batchStart("RemoveBatch", keys, out)
	if sc == nil {
		return
	}
	mask := shardMask(sc.h0s)
	r.lockShards(mask)
	c := r.begin(r.snap.Load(), false)
	c.ents, c.at, c.out = sc.ents, sc.at, out
	steps := sc.steps[:0]
	for i, key := range keys {
		h0 := sc.h0s[i]
		rec, err := c.remove(r.keyShardFor(h0), key, h0)
		out[i] = result(c.t, rec, err)
		if err == nil && c.lg != nil {
			steps = append(steps, undo{key, h0, rec, i})
		}
	}
	if len(steps) > 0 {
		c.journal(steps)
	}
	r.unlockShards(mask)
	c.report(sc.h0s[0])
	r.batchEnd(sc, &c, steps)
}
