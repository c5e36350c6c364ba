// Reconciliation: the cold paths that bring key records back in line
// with the membership. Rebalance, Repair and PlanMigration are one
// sorted-key walk that checks every record against the current
// snapshot (with the serving pipeline's own resolve and select stages
// when the recorded choices alone cannot decide) and hands the records
// that fail to a per-pass fix; Rebalance, Repair and
// MigrationPlan.ApplyBatch commit through one record-swap step.
package router

import (
	"fmt"
	"slices"

	"geobalance/internal/journal"
)

// check is the record validator: nil when rec is legal for the key
// (h0 = Hash('k', 0, key); loads as in choose) under t. Legal means
// every replica sits on a distinct live slot that still resolves at its
// recorded choice index, no replica sits on a draining slot while a
// serving candidate exists, and the replica count is at the target. A
// legal record need not be the least-loaded choice: placement is
// sticky.
//
// The first step, checkReplicas, resolves only the recorded choices.
// With no slot draining and a full R-replica record it decides: R live,
// distinct, resolving replicas are R distinct serving candidates, so
// the drain rule holds and the target count is R, and check returns nil
// candidates. Otherwise the resolve and select stages run: cands are
// the key's candidates and full the record choose picks from them, and
// checkChoice holds rec against full.
func (t *Snapshot) check(key string, h0 uint64, rec keyRec, loads []int64, buf *[MaxChoices]int32) (cands []int32, full keyRec, err error) {
	err = t.checkReplicas(key, h0, rec)
	if err == nil && t.draining == 0 && int(rec.n) == t.R {
		return nil, keyRec{}, nil
	}
	cands = t.resolve(key, h0, buf)
	full, _, _ = t.choose(cands, loads, false)
	if err == nil {
		err = t.checkChoice(key, rec, full)
	}
	return cands, full, err
}

// checkReplicas checks each replica on its own: a live slot, distinct
// from the others, that the recorded choice hash still resolves to.
func (t *Snapshot) checkReplicas(key string, h0 uint64, rec keyRec) error {
	if rec.n < 1 || int(rec.n) > MaxReplicas {
		return fmt.Errorf("key %q has replica count %d", key, rec.n)
	}
	for i := 0; i < int(rec.n); i++ {
		s, j := rec.slots[i], int(rec.salts[i])
		switch {
		case s < 0 || int(s) >= len(t.Names):
			return fmt.Errorf("key %q on out-of-range slot %d", key, s)
		case t.Dead[s]:
			return fmt.Errorf("key %q on dead server %q", key, t.Names[s])
		case j < 0 || j >= t.D:
			return fmt.Errorf("key %q has choice index %d of %d", key, j, t.D)
		case slices.Contains(rec.slots[:i], s):
			return fmt.Errorf("key %q has duplicate replica on %q", key, t.Names[s])
		}
		h := h0
		if j > 0 {
			h = Hash('k', j, key)
		}
		if c := t.Topo.Resolve(h); c != s {
			return fmt.Errorf("key %q recorded on %q but hashes to %q", key, t.Names[s], t.Names[c])
		}
	}
	return nil
}

// checkChoice holds a record whose replicas pass checkReplicas against
// full, the record choose picks now: it carries the target count, and
// its primary is draining only when every candidate is.
func (t *Snapshot) checkChoice(key string, rec keyRec, full keyRec) error {
	for i := 0; i < int(rec.n); i++ {
		if s := rec.slots[i]; t.IsDraining(s) && !t.IsDraining(full.slots[0]) {
			return fmt.Errorf("key %q still on draining server %q", key, t.Names[s])
		}
	}
	if rec.n != full.n {
		return fmt.Errorf("key %q has %d replicas, want %d", key, rec.n, full.n)
	}
	return nil
}

// stray is a key whose record failed check, as the walk hands it
// to a fix: its shard (locked), record, candidates and the record
// choose picks now.
type stray struct {
	key   string
	h0    uint64
	ks    *keyShard
	rec   keyRec
	full  keyRec
	cands []int32
}

// reconcile walks every placed key in sorted order, so at quiescence a
// pass is deterministic, and calls fix for each stray under snapshot t
// (loads as in choose). fix returns false to end the walk. Caller holds
// r.mu, so passes serialize with membership changes and each other;
// Place/Remove traffic may run throughout.
func (r *Router) reconcile(t *Snapshot, loads []int64, fix func(k *stray) bool) {
	if t.Live == 0 {
		return
	}
	keys := make([]string, 0, r.nkeys.Load())
	for i := range r.keys {
		ks := &r.keys[i]
		ks.mu.RLock()
		for k := range ks.m {
			keys = append(keys, k)
		}
		ks.mu.RUnlock()
	}
	slices.Sort(keys)
	var (
		cb [MaxChoices]int32
		k  stray
	)
	for _, key := range keys {
		k.key, k.h0 = key, Hash('k', 0, key)
		k.ks = r.keyShardFor(k.h0)
		k.ks.mu.Lock()
		var (
			ok  bool
			err error
		)
		if k.rec, ok = k.ks.m[key]; ok { // gone if removed while we walked
			k.cands, k.full, err = t.check(key, k.h0, k.rec, loads, &cb)
		}
		more := !ok || err == nil || fix(&k)
		k.ks.mu.Unlock()
		if !more {
			return
		}
	}
}

// swap is the record-swap step of the cold paths: replace the key's
// record old with rec, moving the load charge. The caller holds the
// key's shard lock. The journal append is asynchronous — a lost tail
// update leaves the old record, which the next pass re-homes — and a
// failed append leaves the record as journaled and reports false.
func (r *Router) swap(t *Snapshot, ks *keyShard, key string, h0 uint64, old, rec keyRec) bool {
	if lg := r.jl.Load(); lg != nil {
		if err := lg.AppendAsync(journal.Entry{Op: journal.OpUpdateRec, Name: key, Rec: recToJournal(rec)}); err != nil {
			return false
		}
	}
	old.addLoads(t, h0, -1)
	rec.addLoads(t, h0, 1)
	ks.m[key] = rec
	return true
}

// Rebalance restores the placement invariant after membership changes:
// every replica must live at the owner of its recorded hash choice and
// every key must carry the configured replica count; keys with a
// replica on a dead server or a captured region are re-placed on their
// least-loaded current candidates. Returns the number of keys moved.
// (Repair is the cheaper pass that replaces only lost replicas while
// leaving healthy ones in place; Rebalance re-chooses the whole set.)
// Keys are processed in sorted order, so at quiescence the result is
// deterministic. Concurrent Place/Remove during a Rebalance are safe
// but may leave freshly placed keys for the NEXT Rebalance to repair
// (a placement racing a membership change can land on a stale
// candidate; see Place).
func (r *Router) Rebalance() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snap.Load()
	moved := 0
	r.reconcile(t, nil, func(k *stray) bool {
		if r.swap(t, k.ks, k.key, k.h0, k.rec, k.full) {
			moved++
		}
		return true
	})
	if m := r.met.Load(); m != nil {
		m.RebalancedKeys.Add(0, int64(moved))
	}
	return moved
}

// Repair re-replicates keys whose replica set lost a member: for every
// key with a dead or no-longer-resolving replica (or a stale replica
// count after SetReplication), the surviving replicas stay exactly
// where they are and only the lost slots are refilled with the
// least-loaded live candidates not already in the set. Unlike
// Rebalance it never moves a healthy replica, so a crash of k servers
// touches only the keys those servers carried — the recovery pass to
// run after failures. Returns the number of keys repaired and how many
// of them had lost every replica (their records survive and are
// re-homed, but a real deployment would need to restore their data
// from clients or backup).
func (r *Router) Repair() (repaired, lost int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snap.Load()
	r.reconcile(t, nil, func(k *stray) bool {
		rec, allLost := t.repairRec(k)
		if r.swap(t, k.ks, k.key, k.h0, k.rec, rec) {
			repaired++
			if allLost {
				lost++
			}
		}
		return true
	})
	if m := r.met.Load(); m != nil {
		m.RepairedKeys.Add(0, int64(repaired))
		m.LostKeys.Add(0, int64(lost))
	}
	return repaired, lost
}

// repairRec rebuilds a stray's record around its surviving replicas:
// keep every replica that is live, still resolves and passes the drain
// rule, then fill up to the target count with the members of the full
// choice not already kept. Reports whether no replica was live.
func (t *Snapshot) repairRec(k *stray) (keyRec, bool) {
	var rec keyRec
	live := 0
	for i := 0; i < int(k.rec.n); i++ {
		s := k.rec.slots[i]
		if t.Dead[s] {
			continue
		}
		live++ // a draining or captured replica still holds the data
		if k.cands[k.rec.salts[i]] != s || t.IsDraining(s) && !t.IsDraining(k.full.slots[0]) {
			continue
		}
		rec.slots[rec.n], rec.salts[rec.n] = s, k.rec.salts[i]
		rec.n++
	}
	rec.n = min(rec.n, k.full.n) // replication factor lowered: shed extras
	for i := 0; rec.n < k.full.n; i++ {
		if s := k.full.slots[i]; !slices.Contains(rec.slots[:rec.n], s) {
			rec.slots[rec.n], rec.salts[rec.n] = s, k.full.salts[i]
			rec.n++
		}
	}
	return rec, live == 0
}
