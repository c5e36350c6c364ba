// Replicated placement, failover reads, and repair.
//
// The paper's d candidate locations are a natural replica set: each
// key already hashes to d independent places, so r-way replication is
// "keep the key at the r least-loaded distinct candidates" instead of
// only the single winner — a geometric take on power-of-two-choices
// replication. The serving core stores the whole replica set in the
// fixed-size key record, charges every replica to its slot's load
// counter, and serves failover reads (LocateAny) that skip dead or
// draining replicas without any per-read coordination. Repair is the
// crash-recovery pass: it replaces only the replicas a failure lost,
// leaving healthy replicas (and therefore the bulk of the fleet's
// data) untouched, where Rebalance re-chooses whole sets.
package router

import (
	"errors"
	"fmt"

	"geobalance/internal/journal"
)

// ErrNoLiveReplica is wrapped by LocateAny when a key's record exists
// but every recorded replica is dead. The record survives — Repair
// re-homes it — but until then there is nowhere live to read from.
var ErrNoLiveReplica = errors.New("no live replica")

// SetReplication sets the number of replicas each subsequently placed
// key gets: the r least-loaded of its d distinct candidates, with
// slots[0] (the Place/Locate primary) the least loaded. Existing keys
// keep their old replica count until the next Rebalance or Repair
// re-conforms them. Requires 1 <= r <= min(d, MaxReplicas).
func (r *Router) SetReplication(rep int) error {
	if rep < 1 || rep > MaxReplicas {
		return fmt.Errorf("%s: need 1 <= replicas <= %d, got %d", r.name, MaxReplicas, rep)
	}
	e := journal.Entry{Op: journal.OpSetReplication, Count: rep}
	return r.update(e, func(tx *Txn) (Topology, error) {
		if rep > tx.s.D {
			return nil, fmt.Errorf("%s: replicas %d exceed the %d hash choices per key",
				r.name, rep, tx.s.D)
		}
		tx.s.R = rep
		return tx.Topology(), nil
	})
}

// Replication returns the configured replicas-per-key factor.
func (r *Router) Replication() int { return r.snap.Load().R }

// SetDraining marks a live server as draining (or clears the mark):
// it keeps serving the keys it holds, but placements and failover
// reads prefer other candidates, and the migration planner moves its
// keys away. The graceful-leave sequence is SetDraining(name, true),
// PlanMigration + ApplyBatch until done, then the membership removal.
func (r *Router) SetDraining(name string, draining bool) error {
	e := journal.Entry{Op: journal.OpSetDraining, Name: name, Flag: draining}
	return r.update(e, func(tx *Txn) (Topology, error) {
		i, ok := tx.Slot(name)
		if !ok || !tx.IsLive(i) {
			return nil, fmt.Errorf("%s: unknown server %q", r.name, name)
		}
		tx.s.setDrain(i, draining)
		return tx.Topology(), nil
	})
}

// LocateAny returns a live server holding the key: the primary when it
// is healthy, otherwise the first healthy replica in record order —
// the failover read. Draining replicas are skipped while a non-draining
// one exists. When every replica is dead the error wraps
// ErrNoLiveReplica. Allocation-free on the success path.
func (r *Router) LocateAny(key string) (string, error) {
	h0 := Hash('k', 0, key)
	pr := r.keyShardFor(h0).get(h0, key)
	if !pr.ok() {
		return "", fmt.Errorf("%s: key %q not placed", r.name, key)
	}
	rec := pr.rec()
	t := r.snap.Load()
	m := r.met.Load()
	// The first live serving replica, else the first live draining one.
	best := int32(-1)
	for i := 0; i < int(rec.n); i++ {
		s := rec.slots[i]
		if t.Dead[s] || best >= 0 && t.IsDraining(s) {
			continue
		}
		if best = s; !t.IsDraining(s) {
			break
		}
	}
	if best < 0 {
		if m != nil {
			m.NoLiveReplica.Inc(h0)
		}
		return "", fmt.Errorf("%s: key %q: %w", r.name, key, ErrNoLiveReplica)
	}
	if m != nil {
		m.Locates.Inc(h0)
		if best != rec.slots[0] {
			m.Failovers.Inc(h0)
		}
	}
	return t.Names[best], nil
}

// Owners appends the names of every server currently recorded for the
// key (primary first, dead replicas included — the record is the
// source of truth a repair works from) and returns the extended slice.
func (r *Router) Owners(key string, dst []string) ([]string, error) {
	h0 := Hash('k', 0, key)
	pr := r.keyShardFor(h0).get(h0, key)
	if !pr.ok() {
		return dst, fmt.Errorf("%s: key %q not placed", r.name, key)
	}
	rec := pr.rec()
	t := r.snap.Load()
	for i := 0; i < int(rec.n); i++ {
		dst = append(dst, t.Names[rec.slots[i]])
	}
	return dst, nil
}
