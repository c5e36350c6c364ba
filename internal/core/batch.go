// Batched placement with stale load information.
//
// In a deployed system (the paper's Chord application), inserts are
// concurrent: a ball choosing its bin cannot see the placements of the
// other balls in flight. The standard model is batched arrivals — all
// balls in a batch compare candidate loads as they were at the start of
// the batch, and the loads are only published when the batch commits.
// Sequential placement is the special case of batch size 1; larger
// batches degrade the balance smoothly (for batches of size O(n) the
// max load stays O(log log n) with a larger constant), which the
// ablation benchmark measures.
//
// Not to be confused with PlaceBatch (placement.go), which is the
// fresh-load sequential process in bulk form.
package core

import (
	"fmt"

	"geobalance/internal/rng"
)

// PlaceBatchStale inserts k balls whose d choices are all evaluated
// against the loads as of the call (stale within the batch), then
// commits. It returns the bins chosen, in placement order. Tie-breaking
// uses the allocator's configured rule on the stale loads. It returns
// an error for k < 0; k = 0 is a no-op.
func (a *Allocator) PlaceBatchStale(k int, r *rng.Rand) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: PlaceBatchStale with negative k %d", k)
	}
	if k == 0 {
		return nil, nil
	}
	bins := make([]int, k)
	a.placeStale(bins, r)
	return bins, nil
}

// placeStale is one stale batch of len(bins) balls: each picks into
// bins, then the batch commits. No commit lands until every ball has
// picked, so a.loads is the batch-start view every ball compares
// against.
func (a *Allocator) placeStale(bins []int, r *rng.Rand) {
	for b := range bins {
		cand, tu := a.drawOne(r)
		bins[b] = a.pick(a.loads, cand, tu)
	}
	for _, bin := range bins {
		a.commit(bin, 1)
	}
}

// PlaceNBatched inserts m balls in batches of the given size, modelling
// m concurrent clients with a staleness window of batchSize inserts.
// The batches pick into the allocator's scratch, so once it has grown
// to the batch size no call allocates.
func (a *Allocator) PlaceNBatched(m, batchSize int, r *rng.Rand) error {
	if batchSize < 1 {
		return fmt.Errorf("core: batch size %d < 1", batchSize)
	}
	for placed := 0; placed < m; {
		k := min(batchSize, m-placed)
		if cap(a.stale) < k {
			a.stale = make([]int, k)
		}
		a.placeStale(a.stale[:k], r)
		placed += k
	}
	return nil
}

// PlaceSized inserts one item of integer size (weighted-balls model:
// the whole item goes to the least-loaded candidate and contributes its
// size to that bin's load). Size must be positive. Sized items are
// incompatible with TrackBalls (DeleteRandom removes unit balls).
func (a *Allocator) PlaceSized(size int32, r *rng.Rand) (int, error) {
	if size < 1 {
		return 0, fmt.Errorf("core: item size %d < 1", size)
	}
	if a.cfg.TrackBalls && size != 1 {
		return 0, fmt.Errorf("core: sized items are incompatible with TrackBalls")
	}
	cand, tu := a.drawOne(r)
	bin := a.pick(a.loads, cand, tu)
	a.commit(bin, size)
	return bin, nil
}
