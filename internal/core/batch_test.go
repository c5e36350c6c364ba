package core

import (
	"math"
	"testing"

	"geobalance/internal/ring"
	"geobalance/internal/rng"
	"geobalance/internal/stats"
)

// ringNewRandom adapts ring.NewRandom to the core.Space interface for
// helpers that return errors instead of failing the test directly.
func ringNewRandom(n int, r *rng.Rand) (Space, error) { return ring.NewRandom(n, r) }

func TestPlaceBatchStaleValidation(t *testing.T) {
	sp := mustRing(t, 16, 60)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PlaceBatchStale(-1, rng.New(61)); err == nil {
		t.Error("negative batch accepted")
	}
	bins, err := a.PlaceBatchStale(0, rng.New(61))
	if err != nil || bins != nil {
		t.Error("empty batch misbehaved")
	}
	if err := a.PlaceNBatched(10, 0, rng.New(61)); err == nil {
		t.Error("batch size 0 accepted")
	}
}

func TestPlaceBatchStaleConservation(t *testing.T) {
	sp := mustRing(t, 64, 62)
	a, err := New(sp, Config{D: 2, TrackBalls: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(63)
	bins, err := a.PlaceBatchStale(100, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 100 || a.Placed() != 100 || stats.TotalLoad(a.Loads()) != 100 {
		t.Fatal("batch lost balls")
	}
	if a.MaxLoad() != stats.MaxLoad(a.Loads()) {
		t.Fatal("max tracking diverged after batch")
	}
	for i := 0; i < 100; i++ {
		a.DeleteRandom(r) // ball tracking must include batch placements
	}
	if a.Live() != 0 {
		t.Fatal("batch balls not tracked")
	}
}

// TestPlaceBatchStaleAllocs: a stale batch picks against the
// allocator's own loads, which no commit touches until every ball has
// picked, so the returned bins are its only allocation whatever n is.
func TestPlaceBatchStaleAllocs(t *testing.T) {
	sp := mustRing(t, 1<<12, 64)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(65)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := a.PlaceBatchStale(8, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("PlaceBatchStale(8) allocated %v times per call, want 1 (the returned bins)", allocs)
	}
}

// TestPlaceNBatchedAllocs: PlaceNBatched picks into the allocator's
// scratch, so after a first call has grown it no batch allocates, even
// at batch size 1.
func TestPlaceNBatchedAllocs(t *testing.T) {
	sp := mustRing(t, 1<<12, 66)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(67)
	if allocs := testing.AllocsPerRun(5, func() {
		if err := a.PlaceNBatched(4096, 1, r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("PlaceNBatched(4096, 1) allocated %v times per call, want 0", allocs)
	}
}

// TestBatchSizeOneMatchesSequentialStatistically: batch size 1 is the
// sequential process; means across trials must agree closely.
func TestBatchSizeOneMatchesSequentialStatistically(t *testing.T) {
	const n, trials = 1 << 10, 40
	var seq, batch float64
	for trial := 0; trial < trials; trial++ {
		r1 := rng.NewStream(64, uint64(trial))
		sp1, err := mustRingErr(n, r1)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := New(sp1, Config{D: 2})
		if err != nil {
			t.Fatal(err)
		}
		a1.PlaceN(n, r1)
		seq += float64(a1.MaxLoad())

		r2 := rng.NewStream(64, uint64(trial))
		sp2, err := mustRingErr(n, r2)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := New(sp2, Config{D: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := a2.PlaceNBatched(n, 1, r2); err != nil {
			t.Fatal(err)
		}
		batch += float64(a2.MaxLoad())
	}
	if diff := seq/trials - batch/trials; diff > 0.25 || diff < -0.25 {
		t.Fatalf("batch=1 mean %v differs from sequential %v", batch/trials, seq/trials)
	}
}

func mustRingErr(n int, r *rng.Rand) (Space, error) {
	sp, err := ringNewRandom(n, r)
	return sp, err
}

// TestStalenessDegradesGracefully: larger batches can only hurt. A
// fully stale batch with random ties is *exactly* the d=1 process (the
// snapshot is all zeros, so every ball breaks a tie uniformly between
// two size-biased draws — the marginal is one size-biased draw). With
// the smaller-arc tie rule, full staleness degrades instead to
// "pick the smaller of two arcs", which still beats d=1.
func TestStalenessDegradesGracefully(t *testing.T) {
	const n, trials = 1 << 11, 25
	mean := func(batch int, tie TieBreak) float64 {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			r := rng.NewStream(65, uint64(trial))
			sp, err := ringNewRandom(n, r)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(sp, Config{D: 2, Tie: tie})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.PlaceNBatched(n, batch, r); err != nil {
				t.Fatal(err)
			}
			sum += float64(a.MaxLoad())
		}
		return sum / trials
	}
	d1 := func() float64 {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			r := rng.NewStream(65, uint64(trial))
			sp, err := ringNewRandom(n, r)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(sp, Config{D: 1})
			if err != nil {
				t.Fatal(err)
			}
			a.PlaceN(n, r)
			sum += float64(a.MaxLoad())
		}
		return sum / trials
	}()
	m1, m64, mAll := mean(1, TieRandom), mean(64, TieRandom), mean(n, TieRandom)
	if m64 < m1-0.3 {
		t.Errorf("batch 64 (%v) implausibly better than sequential (%v)", m64, m1)
	}
	if mAll < m64-0.3 {
		t.Errorf("full batch (%v) implausibly better than batch 64 (%v)", mAll, m64)
	}
	// Fully stale + random ties == d=1 in distribution.
	if math.Abs(mAll-d1) > 1.5 {
		t.Errorf("fully-stale random-tie mean (%v) should match d=1 (%v)", mAll, d1)
	}
	// Fully stale + smaller-arc ties beats d=1 decisively.
	if smaller := mean(n, TieSmaller); smaller >= d1-1 {
		t.Errorf("fully-stale smaller-tie (%v) did not clearly beat d=1 (%v)", smaller, d1)
	}
}

func TestPlaceSizedValidation(t *testing.T) {
	sp := mustRing(t, 16, 70)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PlaceSized(0, rng.New(71)); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := a.PlaceSized(-3, rng.New(71)); err == nil {
		t.Error("negative size accepted")
	}
	tracked, err := New(sp, Config{D: 2, TrackBalls: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracked.PlaceSized(5, rng.New(71)); err == nil {
		t.Error("sized item accepted with TrackBalls")
	}
	if _, err := tracked.PlaceSized(1, rng.New(71)); err != nil {
		t.Errorf("unit item rejected with TrackBalls: %v", err)
	}
}

func TestPlaceSizedConservation(t *testing.T) {
	sp := mustRing(t, 64, 72)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(73)
	var total int32
	for i := 0; i < 500; i++ {
		size := int32(1 + r.Intn(20))
		bin, err := a.PlaceSized(size, r)
		if err != nil {
			t.Fatal(err)
		}
		if bin < 0 || bin >= 64 {
			t.Fatalf("bin %d out of range", bin)
		}
		total += size
	}
	if int32(stats.TotalLoad(a.Loads())) != total {
		t.Fatalf("total load %d != total size %d", stats.TotalLoad(a.Loads()), total)
	}
	if a.MaxLoad() != stats.MaxLoad(a.Loads()) {
		t.Fatal("max tracking diverged under sized placement")
	}
	if a.Placed() != 500 {
		t.Fatalf("Placed = %d, want 500 items", a.Placed())
	}
}

// TestSizedTwoChoicesBeatOneChoice: weighted balls keep the two-choice
// advantage on the ring with heavy-tailed sizes.
func TestSizedTwoChoicesBeatOneChoice(t *testing.T) {
	const n, m, trials = 1 << 10, 1 << 10, 25
	mean := func(d int) float64 {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			r := rng.NewStream(74, uint64(trial))
			sp, err := ringNewRandom(n, r)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(sp, Config{D: d})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				// Sizes 1..8, Zipf-ish skew via squaring.
				u := r.Float64()
				size := int32(1 + 7*u*u)
				if _, err := a.PlaceSized(size, r); err != nil {
					t.Fatal(err)
				}
			}
			sum += float64(a.MaxLoad())
		}
		return sum / trials
	}
	one, two := mean(1), mean(2)
	if two >= one {
		t.Fatalf("sized d=2 mean max load %v not below d=1 %v", two, one)
	}
}

func BenchmarkPlaceBatchStale(b *testing.B) {
	sp := mustRing(b, 1<<12, 1)
	a, err := New(sp, Config{D: 2})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.PlaceBatchStale(64, r); err != nil {
			b.Fatal(err)
		}
	}
}
