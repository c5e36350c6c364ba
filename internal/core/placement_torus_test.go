package core

import (
	"fmt"
	"testing"

	"geobalance/internal/rng"
	"geobalance/internal/torus"
)

// newTorusSpaceDim builds a torus space of the given dimension from a
// fixed stream, so two calls with the same seed yield identical spaces.
func newTorusSpaceDim(t testing.TB, n, dim int, seed uint64) *torus.Space {
	t.Helper()
	sp, err := torus.NewRandom(n, dim, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// syntheticWeights returns a deterministic positive weight vector, good
// enough to exercise the weight tie-break comparisons (the rules only
// ever compare weights, they never require them to be true areas).
func syntheticWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.001 + float64((uint32(i)*2654435761)%1000)/1000
	}
	return w
}

// TestPlaceBatchTorusMatchesPlace pins the blocked bulk-nearest
// pipeline to the sequential process: for every dimension, choice
// count, tie rule, and stratification, PlaceBatch AND PlaceBatchParallel
// must produce the exact per-ball placement trace of m Place calls from
// the same stream — the tie-variate contract makes even d >= 2
// TieRandom (where Place interleaves tie draws with location draws)
// prefetchable and bit-identical. m exceeds the pipeline block size, so
// block boundaries are crossed.
func TestPlaceBatchTorusMatchesPlace(t *testing.T) {
	const n, m = 300, pipeBalls + 300 // m > pipeBalls: the pipeline crosses blocks
	configs := []Config{
		{D: 1},
		{D: 2},
		{D: 3},
		{D: 4},
		{D: 3, Stratified: true},
		{D: 2, Tie: TieLeft},
		{D: 4, Tie: TieLeft},
		{D: 3, Tie: TieSmaller},
		{D: 3, Tie: TieLarger},
	}
	if pipeBalls >= m {
		t.Fatalf("m = %d does not cross the %d-ball pipeline block", m, pipeBalls)
	}
	for _, dim := range []int{1, 2, 3, 4} {
		for _, cfg := range configs {
			// track=true pins the full per-ball trace; track=false pins
			// the configs that route through the pair commit
			// (TieRandom d=2 — Tables 1-2's production path — skips the
			// per-ball tracker and recovers it after the batch) via
			// final loads and trackers.
			for _, track := range []bool{true, false} {
				cfg.TrackBalls = track
				name := fmt.Sprintf("dim=%d/d=%d/%s/strat=%v/track=%v", dim, cfg.D, cfg.Tie, cfg.Stratified, track)
				t.Run(name, func(t *testing.T) {
					seed := uint64(100*dim + cfg.D)
					mk := func() *Allocator {
						sp := newTorusSpaceDim(t, n, dim, seed)
						if cfg.Tie == TieSmaller || cfg.Tie == TieLarger {
							if err := sp.SetWeights(syntheticWeights(n)); err != nil {
								t.Fatal(err)
							}
						}
						a, err := New(sp, cfg)
						if err != nil {
							t.Fatal(err)
						}
						return a
					}
					aa, ab, ac := mk(), mk(), mk()
					r1, r2, r3 := rng.New(31+seed), rng.New(31+seed), rng.New(31+seed)
					for i := 0; i < m; i++ {
						aa.Place(r1)
					}
					ab.PlaceBatch(m, r2)
					ac.PlaceBatchParallel(m, 4, r3)
					for i := range aa.balls {
						if aa.balls[i] != ab.balls[i] {
							t.Fatalf("ball %d: Place chose %d, PlaceBatch chose %d", i, aa.balls[i], ab.balls[i])
						}
						if aa.balls[i] != ac.balls[i] {
							t.Fatalf("ball %d: Place chose %d, PlaceBatchParallel chose %d", i, aa.balls[i], ac.balls[i])
						}
					}
					la, lb, lc := aa.Loads(), ab.Loads(), ac.Loads()
					for i := range la {
						if la[i] != lb[i] || la[i] != lc[i] {
							t.Fatalf("bin %d: loads %d/%d/%d diverged", i, la[i], lb[i], lc[i])
						}
					}
					if aa.MaxLoad() != ab.MaxLoad() || aa.Placed() != ab.Placed() ||
						aa.MaxLoad() != ac.MaxLoad() || aa.Placed() != ac.Placed() ||
						aa.atMax != ab.atMax || aa.atMax != ac.atMax {
						t.Fatalf("trackers diverged: max %d/%d/%d placed %d/%d/%d atMax %d/%d/%d",
							aa.MaxLoad(), ab.MaxLoad(), ac.MaxLoad(),
							aa.Placed(), ab.Placed(), ac.Placed(),
							aa.atMax, ab.atMax, ac.atMax)
					}
					if v := r1.Uint64(); v != r2.Uint64() || v != r3.Uint64() {
						t.Fatal("bulk paths consumed different variate counts than Place")
					}
				})
			}
		}
	}
}

// TestPlaceBatchParallelWorkerCounts: the trace must be independent of
// the worker count (including degenerate and oversubscribed values).
func TestPlaceBatchParallelWorkerCounts(t *testing.T) {
	const n, m = 500, 3000
	seed := uint64(77)
	var ref []int32
	for _, workers := range []int{1, 2, 3, 8, 64} {
		sp := newTorusSpaceDim(t, n, 2, seed)
		a, err := New(sp, Config{D: 2, TrackBalls: true})
		if err != nil {
			t.Fatal(err)
		}
		a.PlaceBatchParallel(m, workers, rng.New(seed))
		if ref == nil {
			ref = append([]int32(nil), a.balls...)
			continue
		}
		for i := range ref {
			if a.balls[i] != ref[i] {
				t.Fatalf("workers=%d: ball %d diverged (%d vs %d)", workers, i, a.balls[i], ref[i])
			}
		}
	}
}

// TestPlaceBatchParallelMaxTracker: the pair commit recovers the
// maximum tracker after the batch; it must agree with a full scan and
// with incremental placement before AND after the batch.
func TestPlaceBatchParallelMaxTracker(t *testing.T) {
	sp := newTorusSpaceDim(t, 200, 2, 83)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(83)
	for i := 0; i < 50; i++ {
		a.Place(r) // pre-existing load before the batch
	}
	a.PlaceBatchParallel(1000, 3, r)
	max := int32(0)
	atMax := int32(0)
	for _, l := range a.Loads() {
		if l > max {
			max, atMax = l, 1
		} else if l == max && l > 0 {
			atMax++
		}
	}
	if int(max) != a.MaxLoad() {
		t.Fatalf("MaxLoad %d, loads say %d", a.MaxLoad(), max)
	}
	if atMax != a.atMax {
		t.Fatalf("recovered atMax %d, loads say %d", a.atMax, atMax)
	}
	a.Place(r) // the tracker must keep working incrementally afterwards
	if got, want := a.Placed(), 1051; got != want {
		t.Fatalf("Placed %d, want %d", got, want)
	}
}

// TestPlaceBatchTorusZeroAllocs guards the torus pipeline's zero
// allocations per ball — the specialized dimensions and the dim-4
// generic-kernel path, which shares the same blocked pipeline.
func TestPlaceBatchTorusZeroAllocs(t *testing.T) {
	for _, dim := range []int{2, 3, 4} {
		for _, d := range []int{2, 3} {
			t.Run(fmt.Sprintf("dim=%d/d=%d", dim, d), func(t *testing.T) {
				sp := newTorusSpaceDim(t, 1<<11, dim, uint64(40+dim))
				a, err := New(sp, Config{D: d})
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(41)
				a.PlaceBatch(256, r) // warm scratch
				if allocs := testing.AllocsPerRun(10, func() {
					a.PlaceBatch(512, r)
				}); allocs != 0 {
					t.Fatalf("torus PlaceBatch allocated %v times per run", allocs)
				}
			})
		}
	}
}
