// Live key migration: membership changes planned as a write-log of
// per-key move deltas, applied in small batches while traffic runs.
//
// Rebalance restores the placement invariant in one pass under the
// writer mutex; fine in-process, but a deployment moving real bytes
// wants the oasis-core MKVS pattern of the write log as the unit of
// state transfer: a membership or rebalance change first EMITS the
// deltas ("move key k: slot a -> slot b"), then the serving path
// applies them incrementally. PlanMigration computes that write log
// against one immutable snapshot (optionally bounded); ApplyBatch
// commits a bounded number of deltas, re-validating each against the
// live record under its shard lock, so Place/Locate/Remove traffic —
// and even later membership changes — continue safely between batches.
//
// Reads stay consistent throughout: a record is replaced atomically
// under its key-shard lock, so until the delta for a key commits, the
// old owner answers its reads (the dual-read window), and afterwards
// the new owner does — there is no instant at which a placed key is
// unlocatable, which is exactly read-your-writes for the routing
// layer.
package router

import "fmt"

// MoveDelta is one write-log entry of a MigrationPlan in exported
// form: the key and its replica owner sets before and after the move.
type MoveDelta struct {
	Key  string
	From []string
	To   []string
}

// String renders the delta in write-log form.
func (d MoveDelta) String() string {
	return fmt.Sprintf("move key %q: %v -> %v", d.Key, d.From, d.To)
}

// moveOp is the compact internal delta: the expected current record
// (for re-validation at apply time) and its replacement.
type moveOp struct {
	key      string
	old, new keyRec
}

// MigrationPlan is a write-log of key moves computed against one
// membership snapshot. Apply it with ApplyBatch/ApplyAll; deltas whose
// key changed underneath them (moved, removed, or re-placed by racing
// traffic or another repair pass) are skipped, not misapplied, so a
// stale plan is always safe — at worst incomplete, which a fresh
// PlanMigration detects.
type MigrationPlan struct {
	r    *Router
	snap *Snapshot // the snapshot the plan was computed against
	ops  []moveOp

	next      int
	applied   int
	skipped   int
	truncated bool
}

// PlanMigration computes the write-log of moves that would restore
// every placement invariant — replicas resolving at their recorded
// choices, no replica on a dead or draining slot (while alternatives
// exist), replica counts at the configured factor — without applying
// any of them. Planned destinations simulate the load movement of
// earlier deltas in the plan, so a large migration spreads keys the
// way the same sequence of fresh placements would. limit > 0 bounds
// the number of deltas emitted (Truncated reports whether more
// remained; plan again after applying). Keys are planned in sorted
// order, so at quiescence the plan is deterministic.
func (r *Router) PlanMigration(limit int) *MigrationPlan {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snap.Load()
	p := &MigrationPlan{r: r, snap: t}
	loads := make([]int64, len(t.Names))
	for i := range loads {
		loads[i] = t.Loads[i].Total()
	}
	r.reconcile(t, loads, func(k *stray) bool {
		if limit > 0 && len(p.ops) >= limit {
			p.truncated = true
			return false
		}
		for i := 0; i < int(k.rec.n); i++ {
			loads[k.rec.slots[i]]--
		}
		for i := 0; i < int(k.full.n); i++ {
			loads[k.full.slots[i]]++
		}
		p.ops = append(p.ops, moveOp{key: k.key, old: k.rec, new: k.full})
		return true
	})
	return p
}

// Len returns the number of deltas in the plan.
func (p *MigrationPlan) Len() int { return len(p.ops) }

// Remaining returns the number of deltas not yet attempted.
func (p *MigrationPlan) Remaining() int { return len(p.ops) - p.next }

// Applied returns the number of deltas committed so far.
func (p *MigrationPlan) Applied() int { return p.applied }

// Skipped returns the number of deltas dropped at apply time because
// the key's record had changed (or the destination died) since
// planning.
func (p *MigrationPlan) Skipped() int { return p.skipped }

// Done reports whether every delta has been attempted.
func (p *MigrationPlan) Done() bool { return p.next == len(p.ops) }

// Truncated reports whether the plan hit its limit before covering
// every stranded key.
func (p *MigrationPlan) Truncated() bool { return p.truncated }

// Moves materializes the remaining deltas in exported write-log form
// (primarily for logging, tests, and the fuzz harness).
func (p *MigrationPlan) Moves() []MoveDelta {
	out := make([]MoveDelta, 0, p.Remaining())
	t := p.snap
	for _, op := range p.ops[p.next:] {
		d := MoveDelta{Key: op.key}
		for i := 0; i < int(op.old.n); i++ {
			d.From = append(d.From, t.Names[op.old.slots[i]])
		}
		for i := 0; i < int(op.new.n); i++ {
			d.To = append(d.To, t.Names[op.new.slots[i]])
		}
		out = append(out, d)
	}
	return out
}

// ApplyBatch commits up to max deltas (all remaining when max <= 0)
// and returns how many were applied and how many skipped. Each delta
// takes its key-shard lock, re-validates that the record still equals
// the planned pre-image, and — when the membership changed since
// planning — that the destination is still legal under the CURRENT
// snapshot; anything stale is skipped. Batches serialize with
// membership changes, Rebalance, and Repair, but never block the
// lock-free serving path: traffic between (and during) batches reads
// whichever side of each per-key delta is committed.
func (p *MigrationPlan) ApplyBatch(max int) (applied, skipped int) {
	if p.next >= len(p.ops) {
		return 0, 0
	}
	r := p.r
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.snap.Load()
	sameSnap := t == p.snap
	var cb [MaxChoices]int32
	for (max <= 0 || applied+skipped < max) && p.next < len(p.ops) {
		op := p.ops[p.next]
		p.next++
		h0 := Hash('k', 0, op.key)
		ks := r.keyShardFor(h0)
		ks.mu.Lock()
		cur, ok := ks.m[op.key]
		legal := ok && cur == op.old
		if legal && !sameSnap {
			_, _, err := t.check(op.key, h0, op.new, nil, &cb)
			legal = err == nil
		}
		if legal && r.swap(t, ks, op.key, h0, op.old, op.new) {
			applied++
		} else {
			skipped++
		}
		ks.mu.Unlock()
	}
	p.applied += applied
	p.skipped += skipped
	if m := r.met.Load(); m != nil {
		m.MigrationApplied.Add(0, int64(applied))
		m.MigrationSkipped.Add(0, int64(skipped))
	}
	return applied, skipped
}

// ApplyAll commits every remaining delta.
func (p *MigrationPlan) ApplyAll() (applied, skipped int) { return p.ApplyBatch(0) }
