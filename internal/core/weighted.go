// Heterogeneous server capacities — an extension the paper's ATM
// example motivates (machines can differ in throughput): the d-choice
// comparison uses relative load (load divided by capacity) instead of
// raw load, so a server with capacity 2 fills with twice the items
// before looking "as loaded" as a capacity-1 server.
package core

import (
	"fmt"
	"math"
)

// SetCapacities installs per-bin capacities and switches the allocator
// to relative-load comparisons. Capacities must be positive and finite;
// len(caps) must equal the number of bins. Call before placing balls
// (the allocator must be empty). Pass nil to return to unit capacities.
func (a *Allocator) SetCapacities(caps []float64) error {
	if a.placed != 0 {
		return fmt.Errorf("core: SetCapacities on a non-empty allocator (%d balls)", a.placed)
	}
	if caps == nil {
		a.capInv = nil
		return nil
	}
	if len(caps) != len(a.loads) {
		return fmt.Errorf("core: got %d capacities for %d bins", len(caps), len(a.loads))
	}
	inv := make([]float64, len(caps))
	for i, c := range caps {
		if !(c > 0) || math.IsInf(c, 0) {
			return fmt.Errorf("core: capacity %d = %v must be positive and finite", i, c)
		}
		inv[i] = 1 / c
	}
	a.capInv = inv
	return nil
}

// Capacitated reports whether relative-load comparisons are active.
func (a *Allocator) Capacitated() bool { return a.capInv != nil }

// rel returns the comparison key of a bin under loads: raw load without
// capacities, load/capacity with.
func (a *Allocator) rel(loads []int32, bin int) float64 {
	if a.capInv == nil {
		return float64(loads[bin])
	}
	return float64(loads[bin]) * a.capInv[bin]
}

// MaxRelativeLoad returns the maximum of load/capacity over bins (equal
// to MaxLoad when capacities are unset).
func (a *Allocator) MaxRelativeLoad() float64 {
	var m float64
	for i := range a.loads {
		if v := a.rel(a.loads, i); v > m {
			m = v
		}
	}
	return m
}
