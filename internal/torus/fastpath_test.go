package torus

import (
	"testing"

	"geobalance/internal/rng"
)

// TestReseedMatchesNewRandom: reseeding consumes the same variates as
// fresh construction and yields identical sites and query answers.
func TestReseedMatchesNewRandom(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		const n = 500
		reused, err := NewRandom(n, dim, rng.New(60))
		if err != nil {
			t.Fatal(err)
		}
		for trial := uint64(0); trial < 3; trial++ {
			r1 := rng.NewStream(61, trial)
			r2 := rng.NewStream(61, trial)
			fresh, err := NewRandom(n, dim, r1)
			if err != nil {
				t.Fatal(err)
			}
			reused.Reseed(r2)
			if r1.Float64() != r2.Float64() {
				t.Fatal("Reseed consumed different variates than NewRandom")
			}
			for i := 0; i < n; i++ {
				f, g := fresh.Site(i), reused.Site(i)
				for j := range f {
					if f[j] != g[j] {
						t.Fatalf("dim=%d trial %d: site %d coord %d differs", dim, trial, i, j)
					}
				}
			}
			probe := rng.New(62 + trial)
			q := fresh.Sample(probe)
			for i := 0; i < 1000; i++ {
				fresh.SampleInto(q, probe)
				bf, df := fresh.Nearest(q)
				br, dr := reused.Nearest(q)
				if bf != br || df != dr {
					t.Fatalf("dim=%d: Nearest differs after Reseed: (%d,%v) vs (%d,%v)", dim, bf, df, br, dr)
				}
			}
		}
	}
}

// TestNearestIterativeHighDim: walk's odometer has no dimension cap
// (NearestShared's stack scratch covers 8 dims; Nearest's is sized to
// the Space).
func TestNearestIterativeHighDim(t *testing.T) {
	const n, dim = 64, 9
	sp, err := NewRandom(n, dim, rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(67)
	q := sp.Sample(r)
	for i := 0; i < 200; i++ {
		sp.SampleInto(q, r)
		got, gotD2 := sp.Nearest(q)
		want, wantD2 := sp.NearestBrute(q)
		if got != want || gotD2 != wantD2 {
			t.Fatalf("dim=%d: Nearest (%d,%v) vs brute (%d,%v)", dim, got, gotD2, want, wantD2)
		}
	}
}

// TestChooseBinZeroAllocs: the query path performs no heap allocation.
func TestChooseBinZeroAllocs(t *testing.T) {
	sp, err := NewRandom(1<<12, 2, rng.New(68))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(69)
	sp.ChooseBin(r) // warm
	if allocs := testing.AllocsPerRun(50, func() {
		sp.ChooseBin(r)
	}); allocs != 0 {
		t.Fatalf("ChooseBin allocated %v times per run", allocs)
	}
}

// TestReseedZeroAllocs: reseeding reuses the grid buffers.
func TestReseedZeroAllocs(t *testing.T) {
	sp, err := NewRandom(1<<10, 2, rng.New(70))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(71)
	sp.Reseed(r) // warm scratch
	if allocs := testing.AllocsPerRun(10, func() {
		sp.Reseed(r)
	}); allocs != 0 {
		t.Fatalf("Reseed allocated %v times per run", allocs)
	}
}
