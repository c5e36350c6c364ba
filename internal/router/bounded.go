// Bounded-load admission: the overload-protection policy layered on
// the d-choice placement rule.
//
// Plain d-choice always places — the least-loaded candidate wins no
// matter how loaded it is. Under sustained overload (arrivals past
// service capacity, or a capacity collapse in one zone) that turns
// hot servers into snowballs: they keep absorbing keys precisely
// because everything is overloaded. Bounded load, in the
// consistent-hashing-with-bounded-loads tradition, caps every slot at
// a multiple c of the capacity-relative mean: a placement forwards
// past any candidate whose post-placement load would exceed
// ceil(c · m · cap_s / capSum) (m counting the incoming replica) and,
// when every candidate is saturated, fails loudly with a typed
// ErrOverloaded carrying a retry-after hint — back-pressure, never a
// silent drop. The ceiling guarantees an empty server always admits at
// least one key, and because the per-placement threshold is monotone
// in m, a fleet that only grows satisfies load_s <=
// ceil(c · m · cap_s / capSum) at all times.
//
// The policy gates Place/PlaceReplicated only. Rebalance, Repair, and
// migration deliberately bypass it: keys that already exist must live
// somewhere, so recovery passes fall back to the unbounded rule rather
// than strand a record.
package router

import (
	"errors"
	"fmt"
	"time"

	"geobalance/internal/journal"
)

// ErrOverloaded is wrapped by Place/PlaceReplicated when bounded-load
// admission is active and every candidate for the key sits above the
// c·mean threshold. The key was NOT placed; the caller owns the retry
// (see OverloadedError.RetryAfter for the hint).
var ErrOverloaded = errors.New("all candidates overloaded")

// OverloadedError is the typed rejection bounded-load admission
// returns: it wraps ErrOverloaded (match with errors.Is) and carries a
// retry-after hint proportional to how far the least-loaded candidate
// sits above the admission threshold — a crude but monotone signal for
// client backoff.
type OverloadedError struct {
	Router     string
	Key        string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%s: key %q: %v (retry after %v)",
		e.Router, e.Key, ErrOverloaded, e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// retryAfter clamps the overshoot ratio (least-loaded candidate's
// relative load over the admission threshold) into a [1ms, 50ms] hint.
func retryAfter(overshoot float64) time.Duration {
	d := time.Duration(overshoot * float64(time.Millisecond))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// SetBoundedLoad enables (c > 1) or disables (c == 0) bounded-load
// admission. With the policy on, Place and PlaceReplicated admit a
// candidate slot s only while its post-placement load stays within
// ceil(c · m · Caps[s] / CapSum), where m counts every placed replica
// plus the incoming one — the capacity-relative "c times the mean"
// threshold. Saturated candidates are forwarded past in placement
// order; when the whole candidate set is saturated (or too few
// admissible candidates remain to meet the replication target) the
// placement fails with an OverloadedError wrapping ErrOverloaded.
// Locate/LocateAny/Remove are unaffected, and Rebalance, Repair, and
// migration intentionally bypass the policy (existing keys must live
// somewhere). c = 1 is rejected: it leaves no headroom above a
// perfectly balanced fleet, so steady-state placement would live on
// the rejection path.
func (r *Router) SetBoundedLoad(c float64) error {
	if c != 0 && !(c > 1) {
		return fmt.Errorf("%s: bounded-load factor %v: need c > 1 (or 0 to disable)", r.name, c)
	}
	e := journal.Entry{Op: journal.OpSetBoundedLoad, Value: c}
	return r.update(e, func(tx *Txn) (Topology, error) {
		tx.s.Bound = c
		return tx.Topology(), nil
	})
}

// BoundedLoad returns the active bounded-load factor (0 = off).
func (r *Router) BoundedLoad() float64 { return r.snap.Load().Bound }

// MeanRelLoad returns the capacity-relative mean load: total placed
// replicas over total live capacity — the "mean" in the c·mean
// admission threshold.
func (r *Router) MeanRelLoad() float64 {
	t := r.snap.Load()
	if t.CapSum <= 0 {
		return 0
	}
	return float64(t.Total.Total()) / t.CapSum
}

// MaxRelLoad returns the largest load/capacity ratio over live
// servers — the quantity bounded-load admission keeps within c times
// MeanRelLoad (plus the per-slot ceiling slack).
func (r *Router) MaxRelLoad() float64 {
	t := r.snap.Load()
	var m float64
	for i := range t.Names {
		if !t.Dead[i] {
			if rl := t.RelLoad(int32(i)); rl > m {
				m = rl
			}
		}
	}
	return m
}
