package core

import (
	"fmt"
	"testing"

	"geobalance/internal/ring"
	"geobalance/internal/rng"
	"geobalance/internal/stats"
	"geobalance/internal/torus"
)

func newRingSpace(t testing.TB, n int, seed uint64) Space {
	t.Helper()
	sp, err := ring.NewRandom(n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func newTorusSpace(t testing.TB, n int, seed uint64) Space {
	t.Helper()
	sp, err := torus.NewRandom(n, 2, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func newUniformSpace(t testing.TB, n int) Space {
	t.Helper()
	sp, err := NewUniform(n)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestPlaceBatchMatchesPlace verifies the bit-exactness contract: for
// every configuration, PlaceBatch must choose exactly the bins m Place
// calls choose from the same stream. m is kept under n/4 so the d=2
// TieRandom rows commit through pick here; the pair commit (a batch of
// at least n/4) is pinned separately by TestPlaceBatchBlockedMatchesPlace
// and TestPlaceBatchTorusMatchesPlace.
func TestPlaceBatchMatchesPlace(t *testing.T) {
	const n, m = 512, 100
	type cfgCase struct {
		name  string
		mk    func(t testing.TB) Space
		cfg   Config
		exact bool
	}
	var cases []cfgCase
	spaces := []struct {
		name string
		mk   func(t testing.TB) Space
	}{
		{"ring", func(t testing.TB) Space { return newRingSpace(t, n, 7) }},
		{"torus", func(t testing.TB) Space { return newTorusSpace(t, n, 8) }},
		{"uniform", func(t testing.TB) Space { return newUniformSpace(t, n) }},
	}
	for _, sp := range spaces {
		for d := 1; d <= 4; d++ {
			for _, tie := range []TieBreak{TieRandom, TieSmaller, TieLarger, TieLeft} {
				if tie == TieSmaller || tie == TieLarger {
					if sp.name == "torus" {
						continue // torus weights need Voronoi areas; covered elsewhere
					}
				}
				for _, track := range []bool{false, true} {
					cases = append(cases, cfgCase{
						name:  fmt.Sprintf("%s/d=%d/%s/track=%v", sp.name, d, tie, track),
						mk:    sp.mk,
						cfg:   Config{D: d, Tie: tie, TrackBalls: track},
						exact: true,
					})
				}
			}
			// Stratified without TieLeft (TieLeft implies it above).
			cases = append(cases, cfgCase{
				name:  fmt.Sprintf("%s/d=%d/stratified", sp.name, d),
				mk:    sp.mk,
				cfg:   Config{D: d, Tie: TieRandom, Stratified: true},
				exact: true,
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spA, spB := tc.mk(t), tc.mk(t)
			aa, err := New(spA, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ab, err := New(spB, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r1, r2 := rng.New(900), rng.New(900)
			for i := 0; i < m; i++ {
				aa.Place(r1)
			}
			ab.PlaceBatch(m, r2)
			la, lb := aa.Loads(), ab.Loads()
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("bin %d: Place %d vs PlaceBatch %d", i, la[i], lb[i])
				}
			}
			if aa.MaxLoad() != ab.MaxLoad() || aa.Placed() != ab.Placed() {
				t.Fatalf("trackers diverged: max %d/%d placed %d/%d",
					aa.MaxLoad(), ab.MaxLoad(), aa.Placed(), ab.Placed())
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatal("Place and PlaceBatch consumed different variate counts")
			}
		})
	}
}

// TestPlaceBatchCapacitated: capacitated allocators run the same
// pipeline, through pick's relative loads, and are exact too.
func TestPlaceBatchCapacitated(t *testing.T) {
	const n, m = 128, 400
	caps := make([]float64, n)
	r := rng.New(13)
	for i := range caps {
		caps[i] = 0.5 + 2*r.Float64()
	}
	mk := func() *Allocator {
		a, err := New(newRingSpace(t, n, 14), Config{D: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		return a
	}
	aa, ab := mk(), mk()
	r1, r2 := rng.New(15), rng.New(15)
	for i := 0; i < m; i++ {
		aa.Place(r1)
	}
	ab.PlaceBatch(m, r2)
	la, lb := aa.Loads(), ab.Loads()
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("bin %d: %d vs %d", i, la[i], lb[i])
		}
	}
}

// TestPlaceBatchBlockedMatchesPlace: the ring pipeline draws each
// ball's variates in Place's exact order (location, location,
// unconditional tie variate — the tie-variate contract), so even the
// d=2 TieRandom pair commit is bit-identical to the sequential process,
// and its O(n) maximum-tracker recovery must agree with the loads.
func TestPlaceBatchBlockedMatchesPlace(t *testing.T) {
	const n = 1 << 10
	for trial := uint64(0); trial < 8; trial++ {
		r1 := rng.NewStream(16, trial)
		sp1, err := ring.NewRandom(n, r1)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := New(sp1, Config{D: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			a1.Place(r1)
		}

		r2 := rng.NewStream(16, trial)
		sp2, err := ring.NewRandom(n, r2)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := New(sp2, Config{D: 2})
		if err != nil {
			t.Fatal(err)
		}
		a2.PlaceBatch(n, r2) // m = n >= n/4: the pair commit

		l1, l2 := a1.Loads(), a2.Loads()
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("trial %d bin %d: Place %d, blocked PlaceBatch %d", trial, i, l1[i], l2[i])
			}
		}
		if a1.MaxLoad() != a2.MaxLoad() {
			t.Fatalf("trial %d: max %d vs %d", trial, a1.MaxLoad(), a2.MaxLoad())
		}
		if a2.MaxLoad() != stats.MaxLoad(a2.Loads()) {
			t.Fatal("blocked path max tracker diverged from loads")
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("Place and blocked PlaceBatch consumed different variate counts")
		}
	}
}

// TestPlaceBatchZeroAllocs: steady-state bulk placement must not
// allocate, on any of the three geometries.
func TestPlaceBatchZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		sp   Space
	}{
		{"ring", newRingSpace(t, 1<<12, 21)},
		{"torus", newTorusSpace(t, 1<<12, 22)},
		{"uniform", newUniformSpace(t, 1<<12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := New(tc.sp, Config{D: 2})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(23)
			a.PlaceBatch(1<<12, r) // warm scratch buffers
			a.Reset()
			if allocs := testing.AllocsPerRun(10, func() {
				a.PlaceBatch(256, r)
			}); allocs != 0 {
				t.Fatalf("PlaceBatch allocated %v times per run", allocs)
			}
		})
	}
}

// TestReseedResetZeroAllocs: a full reused ring trial (Reseed + Reset +
// PlaceBatch) is allocation-free after warmup.
func TestReseedResetZeroAllocs(t *testing.T) {
	const n = 1 << 12
	sp, err := ring.NewRandom(n, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(sp, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(25)
	sp.Reseed(r)
	a.Reset()
	a.PlaceBatch(n, r)
	if allocs := testing.AllocsPerRun(5, func() {
		sp.Reseed(r)
		a.Reset()
		a.PlaceBatch(n, r)
	}); allocs != 0 {
		t.Fatalf("reused trial allocated %v times per run", allocs)
	}
}

// TestDeleteRandomHistogram stresses the incremental load-count
// histogram: an arbitrary interleaving of single, bulk, and stale-batch
// inserts with random deletes must keep the O(1) max tracker equal to a
// full scan of the loads at every step.
func TestDeleteRandomHistogram(t *testing.T) {
	const n = 64
	a, err := New(newRingSpace(t, n, 30), Config{D: 2, TrackBalls: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	check := func(step string) {
		t.Helper()
		if got, want := a.MaxLoad(), stats.MaxLoad(a.Loads()); got != want {
			t.Fatalf("%s: MaxLoad %d, loads say %d", step, got, want)
		}
	}
	for round := 0; round < 2000; round++ {
		switch r.Intn(4) {
		case 0:
			a.Place(r)
		case 1:
			a.PlaceBatch(1+r.Intn(8), r)
		case 2:
			if _, err := a.PlaceBatchStale(1+r.Intn(8), r); err != nil {
				t.Fatal(err)
			}
		case 3:
			for k := r.Intn(6); k > 0 && a.Live() > 0; k-- {
				a.DeleteRandom(r)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	// Drain completely: the tracker must walk max back down to zero.
	for a.Live() > 0 {
		a.DeleteRandom(r)
		check("drain")
	}
	if a.MaxLoad() != 0 {
		t.Fatalf("drained allocator reports max %d", a.MaxLoad())
	}
}

// TestUniformChooseBinIn pins the stratified uniform space's block
// boundaries, including the degenerate strata that appear when d > n.
func TestUniformChooseBinIn(t *testing.T) {
	cases := []struct {
		n, d   int
		k      int
		lo, hi int // expected bin range [lo, hi)
	}{
		{n: 8, d: 2, k: 0, lo: 0, hi: 4},
		{n: 8, d: 2, k: 1, lo: 4, hi: 8},
		{n: 8, d: 3, k: 0, lo: 0, hi: 2},
		{n: 8, d: 3, k: 1, lo: 2, hi: 5},
		{n: 8, d: 3, k: 2, lo: 5, hi: 8},
		// d = n: every stratum is exactly one bin.
		{n: 4, d: 4, k: 0, lo: 0, hi: 1},
		{n: 4, d: 4, k: 3, lo: 3, hi: 4},
		// d > n: degenerate strata collapse to their start bin.
		{n: 3, d: 5, k: 0, lo: 0, hi: 1},
		{n: 3, d: 5, k: 1, lo: 0, hi: 1},
		{n: 3, d: 5, k: 2, lo: 1, hi: 2},
		{n: 3, d: 5, k: 3, lo: 1, hi: 2},
		{n: 3, d: 5, k: 4, lo: 2, hi: 3},
		{n: 1, d: 4, k: 0, lo: 0, hi: 1},
		{n: 1, d: 4, k: 3, lo: 0, hi: 1},
		// k = d-1 always ends exactly at n.
		{n: 7, d: 9, k: 8, lo: 6, hi: 7},
		{n: 2, d: 64, k: 63, lo: 1, hi: 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d_d=%d_k=%d", tc.n, tc.d, tc.k), func(t *testing.T) {
			u, err := NewUniform(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(tc.n*1000 + tc.d*10 + tc.k))
			seen := map[int]bool{}
			for i := 0; i < 200; i++ {
				bin := u.ChooseBinIn(r, tc.k, tc.d)
				if bin < tc.lo || bin >= tc.hi {
					t.Fatalf("bin %d outside [%d, %d)", bin, tc.lo, tc.hi)
				}
				seen[bin] = true
			}
			if len(seen) != tc.hi-tc.lo {
				t.Fatalf("saw %d distinct bins, want %d", len(seen), tc.hi-tc.lo)
			}
		})
	}
	// Degenerate strata still consume one variate, preserving stream
	// alignment across stratum shapes.
	u1, _ := NewUniform(3)
	r1, r2 := rng.New(77), rng.New(77)
	u1.ChooseBinIn(r1, 1, 5) // degenerate
	r2.Intn(1)               // the one draw it must have made
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("degenerate stratum consumed an unexpected number of variates")
	}
}
