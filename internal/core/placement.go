// The d-choice rule and the block pipeline that runs it in bulk.
//
// pick is the only place the rule is written: the least loaded of a
// ball's candidates wins, a candidate equal to the current best is
// skipped, and equal loads go to the configured tie rule. Every entry
// point reaches it. Place, PlaceSized and PlaceBatchStale draw one ball
// through the Space interface and pick; PlaceBatch and
// PlaceBatchParallel run one block pipeline for every space and
// configuration, in three phases per block:
//
//  1. Draw: the block's variates, in exactly the per-ball order Place
//     consumes them. The ring and the torus draw locations (unit floats,
//     query points) into a flat buffer; the uniform space and any other
//     Space draw bins directly. Tie variates go to their own buffer.
//  2. Resolve: the ring's locations are looked up in bulk through
//     internal/jump, the torus's by the cell-sorted torus.NearestBatch
//     kernel — sharded across workers under PlaceBatchParallel, each
//     worker with its own torus.BatchScratch. Site geometry is immutable
//     during a batch, so the output is independent of worker count and
//     scheduling.
//  3. Commit: pick and commit per ball, strictly sequentially, so every
//     ball sees all previous placements. Tables 1–2's configuration
//     (d = 2, random ties, no ball tracking, no capacities, a batch of
//     at least n/4 balls) commits through one branch-free pair loop
//     instead and recovers the maximum tracker in one pass afterwards.
//
// # Random-variate order and the tie-variate contract
//
// PlaceBatch consumes random variates in exactly the per-ball order
// Place does — and therefore places every ball in exactly the same bin
// for a given generator state — for EVERY configuration and space.
// What makes that possible for the blocked paths is that the variate
// schedule is static: the number and order of draws per ball depends
// only on the configuration, never on the data. Location draws are
// static by construction (d choices of Dim() uniforms each); the one
// historically data-dependent draw, the TieRandom tie break, is made
// static by the tie-variate contract:
//
//	Under TieRandom with d >= 2, every candidate after the first draws
//	one raw Uint64 tie variate immediately after its location variates,
//	whether or not a tie occurred. When a tie did occur the variate
//	selects among the tied candidates via tiePick (probability 1/ties
//	up to a 2^-62 bias); otherwise it is discarded.
//
// Because the schedule is static, a block's variates can be drawn
// upfront in Place's exact order, the expensive geometric queries
// answered in bulk (even in parallel — see PlaceBatchParallel), and the
// buffered tie variates consumed by the sequential commit loop exactly
// where Place would have drawn them. TestPlaceBatchMatchesPlace,
// TestPlaceBatchTorusMatchesPlace and FuzzPlacement pin the
// bit-exactness config by config, block boundaries included.
//
// All scratch lives on the Allocator, so steady-state placement does
// zero heap allocations per ball (guarded by TestPlaceBatchZeroAllocs).
package core

import (
	"math/bits"
	"runtime"
	"sync"

	"geobalance/internal/jump"
	"geobalance/internal/rng"
	"geobalance/internal/torus"
)

// blockBalls is the pipeline block of the ring and of spaces drawn bin
// by bin: enough lookups in flight to hide table latency, small enough
// that the scratch stays in L1.
const blockBalls = 32

// pipeBalls is the torus pipeline block: large enough that the resolve
// phase's cell-sorted queries stream through the grid index (and that
// parallel shards amortize goroutine handoff), small enough that the
// block's buffers stay cache-resident alongside the index.
const pipeBalls = 8192

// minParallelShard is the smallest per-worker query count worth a
// goroutine handoff in the parallel resolve phase.
const minParallelShard = 256

// tiePick reports whether tie variate u selects the newest of `ties`
// equally loaded candidates. The selection probability is 1/ties up to a
// bias below 2^-62 (mulhi without rejection — exact for ties a power of
// two), which is immeasurable at simulation scale and, unlike
// rng.Intn's rejection loop, consumes exactly one variate no matter
// what u is. That fixed consumption is what makes the TieRandom variate
// schedule static and therefore block-prefetchable.
func tiePick(u uint64, ties int) bool {
	hi, _ := bits.Mul64(u, uint64(ties))
	return hi == 0
}

// pick returns the bin one ball goes to: the least loaded of its
// candidates cand against loads (relative to capacity once
// SetCapacities is set), with equal loads settled by the configured tie
// rule. tu holds the ball's tie variates, tu[k-1] drawn after candidate
// k's location; only TieRandom reads them.
func (a *Allocator) pick(loads, cand []int32, tu []uint64) int {
	best := int(cand[0])
	bestRel := a.rel(loads, best)
	ties := 1
	for k := 1; k < len(cand); k++ {
		c := int(cand[k])
		if c == best {
			continue
		}
		rel := a.rel(loads, c)
		switch {
		case rel < bestRel:
			best, bestRel, ties = c, rel, 1
		case rel == bestRel:
			switch a.cfg.Tie {
			case TieRandom:
				ties++
				if tiePick(tu[k-1], ties) {
					best = c
				}
			case TieSmaller:
				if a.space.Weight(c) < a.space.Weight(best) {
					best = c
				}
			case TieLarger:
				if a.space.Weight(c) > a.space.Weight(best) {
					best = c
				}
			case TieLeft:
				// Keep the earlier stratum.
			}
		}
	}
	return best
}

// drawOne draws one ball's candidates and tie variates into the
// allocator's scratch.
func (a *Allocator) drawOne(r *rng.Rand) ([]int32, []uint64) {
	d := a.cfg.D
	cand, tu := a.cand[:d], a.tu[:d-1]
	a.drawBins(cand, tu, r)
	return cand, tu
}

// drawBins fills cand with len(cand)/d balls' candidate bins, drawn
// through the Space interface (the uniform space's unstratified draw
// inline), and tu with their tie variates, in Place's variate order.
func (a *Allocator) drawBins(cand []int32, tu []uint64, r *rng.Rand) {
	d := a.cfg.D
	tieRand := a.cfg.Tie == TieRandom
	us, _ := a.space.(*UniformSpace)
	t := 0
	for i := 0; i < len(cand); i += d {
		for k := 0; k < d; k++ {
			var c int
			switch {
			case a.strat != nil:
				c = a.strat.ChooseBinIn(r, k, d)
			case us != nil:
				c = r.Intn(us.n)
			default:
				c = a.space.ChooseBin(r)
			}
			cand[i+k] = int32(c)
			if tieRand && k > 0 {
				tu[t] = r.Uint64()
				t++
			}
		}
	}
}

// drawLocs fills locs with the locations of len(locs)/(d*dim) balls,
// dim coordinates per candidate, and tu with their tie variates, in
// Place's variate order. A stratified candidate k takes (k+F)/d as its
// first coordinate; wrap maps a (k+F)/d that rounds up to 1 back to 0,
// as ring.ChooseBinIn does (torus.ChooseBinIn feeds it to the kernels
// unwrapped, which clamp it into the last cell).
func (a *Allocator) drawLocs(locs []float64, tu []uint64, dim int, wrap bool, r *rng.Rand) {
	d := a.cfg.D
	df := float64(d)
	tieRand := a.cfg.Tie == TieRandom
	strat := a.strat != nil
	t := 0
	for i := 0; i < len(locs); {
		for k := 0; k < d; k++ {
			u := r.Float64()
			if strat {
				u = (float64(k) + u) / df
				if wrap && u >= 1 {
					u = 0
				}
			}
			locs[i] = u
			for j := 1; j < dim; j++ {
				locs[i+j] = r.Float64()
			}
			i += dim
			if tieRand && k > 0 {
				tu[t] = r.Uint64()
				t++
			}
		}
	}
}

// PlaceBatch inserts m balls sequentially, bit-identical to calling
// Place m times. m <= 0 is a no-op.
func (a *Allocator) PlaceBatch(m int, r *rng.Rand) {
	a.placeBatch(m, 1, r)
}

// PlaceBatchParallel inserts m balls with results bit-identical to m
// sequential Place calls — and therefore to PlaceBatch — sharding the
// torus's nearest-site resolution across workers (<= 0 selects
// GOMAXPROCS). Only the resolve phase runs concurrently: variate
// drawing and the pick/commit loop stay sequential, so the placement
// trace is independent of worker count and scheduling. Spaces without a
// bulk-nearest phase worth sharding (the ring resolves a lookup in a
// few nanoseconds) run the same pipeline on one goroutine.
//
// The Allocator itself remains single-threaded: PlaceBatchParallel may
// not be called concurrently with any other method.
func (a *Allocator) PlaceBatchParallel(m, workers int, r *rng.Rand) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a.placeBatch(m, workers, r)
}

// placeBatch runs the block pipeline (see the file comment) over m
// balls; workers > 1 shards the torus resolve phase.
func (a *Allocator) placeBatch(m, workers int, r *rng.Rand) {
	if m <= 0 {
		return
	}
	d := a.cfg.D
	bs, isRing := a.space.(bucketSpace)
	ts, isTorus := a.space.(*torus.Space)
	B, dim := blockBalls, 0 // dim 0: the draw yields bins, not locations
	switch {
	case isRing:
		dim = 1
	case isTorus:
		B, dim = pipeBalls, ts.Dim()
	}
	B = min(B, m)
	workers = max(1, min(workers, B*d/minParallelShard))
	if cap(a.cand) < B*d {
		a.cand = make([]int32, B*d)
		a.tu = make([]uint64, B*(d-1))
	}
	if cap(a.locs) < B*d*dim {
		a.locs = make([]float64, B*d*dim)
	}
	for len(a.nbsc) < workers-1 {
		a.nbsc = append(a.nbsc, new(torus.BatchScratch))
	}

	pair := d == 2 && a.cfg.Tie == TieRandom && !a.cfg.TrackBalls &&
		a.capInv == nil && 4*m >= len(a.loads)
	for placed := 0; placed < m; {
		b := min(B, m-placed)
		cand, tu, locs := a.cand[:b*d], a.tu[:b*(d-1)], a.locs[:b*d*dim]
		switch {
		case isRing:
			a.drawLocs(locs, tu, 1, true, r)
			if delta := bs.BucketDeltas(); delta != nil {
				jump.LocateBlock(bs.SiteBits(), delta, locs, cand)
			} else {
				sites, idx := bs.SiteBits(), bs.Buckets()
				nbf := float64(len(sites) - 1)
				for i, u := range locs {
					cand[i] = int32(jump.LocateIdx(sites, idx, nbf, u))
				}
			}
		case isTorus:
			a.drawLocs(locs, tu, dim, false, r)
			if workers > 1 {
				a.resolveParallel(ts, locs, cand, dim, workers)
			} else {
				ts.NearestBatch(locs, cand)
			}
		default:
			a.drawBins(cand, tu, r)
		}
		if pair {
			pairCommit(a.loads, cand, tu)
		} else {
			for i, t := 0, 0; i < len(cand); i, t = i+d, t+d-1 {
				a.commit(a.pick(a.loads, cand[i:i+d], tu[t:t+d-1]), 1)
			}
		}
		placed += b
	}
	if pair {
		a.recoverMax()
		a.placed += m
	}
}

// pairCommit is pick and commit for Tables 1–2's configuration (d = 2,
// random ties, no ball tracking, no capacities), branch-free: the choice
// between {lower load, tie coin} is an arithmetic select, keeping the
// ~50/50 outcomes off the branch predictor. It maintains neither the
// maximum tracker nor the ball count; the caller recovers both after
// the batch.
func pairCommit(loads, cand []int32, tu []uint64) {
	for ball, u := range tu {
		j1, j2 := int(cand[2*ball]), int(cand[2*ball+1])
		if j1 != j2 {
			diff := loads[j2] - loads[j1]
			neg := uint32(diff) >> 31 // 1 iff loads[j2] < loads[j1]
			var eq uint32             // 1 iff equal
			if diff == 0 {
				eq = 1
			}
			coin := uint32(u>>63) ^ 1 // tiePick(u, 2)
			j1 += (j2 - j1) * int(neg|(eq&coin))
		}
		loads[j1]++
	}
}

// resolveParallel shards one block's queries into contiguous chunks,
// one goroutine per extra worker (the caller's goroutine takes the
// first chunk). Chunks write disjoint ranges of out and each worker
// uses its own BatchScratch, so the result is deterministic and
// race-free.
func (a *Allocator) resolveParallel(ts *torus.Space, qpts []float64, out []int32, dim, workers int) {
	q := len(out)
	chunk := (q + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo := w * chunk
		if lo >= q {
			break
		}
		hi := min(lo+chunk, q)
		wg.Add(1)
		go func(sc *torus.BatchScratch, lo, hi int) {
			defer wg.Done()
			ts.NearestBatchInto(sc, qpts[lo*dim:hi*dim], out[lo:hi])
		}(a.nbsc[w-1], lo, hi)
	}
	hi := min(chunk, q)
	ts.NearestBatch(qpts[:hi*dim], out[:hi])
	wg.Wait()
}
