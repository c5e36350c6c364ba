package ring

import (
	"math"
	"sort"
	"testing"

	"geobalance/internal/rng"
)

// locateReference is the seed implementation's binary search, adapted to
// the documented semantics (greatest site <= u, last duplicate, wrap).
func locateReference(sites []float64, u float64) int {
	i := sort.SearchFloat64s(sites, u)
	j := i - 1
	for i < len(sites) && sites[i] == u {
		j = i
		i++
	}
	if j < 0 {
		return len(sites) - 1
	}
	return j
}

// TestLocateBucketVsBinarySearch cross-checks the jump-index Locate
// against the binary-search reference on 10k random locations plus
// adversarial ones: exact site hits (including duplicates), one-ulp
// neighbors, bucket boundaries, and the extremes of the ring.
func TestLocateBucketVsBinarySearch(t *testing.T) {
	r := rng.New(41)
	spaces := []*Space{}
	for _, n := range []int{1, 2, 3, 64, 257, 4096} {
		sp, err := NewRandom(n, r)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, sp)
	}
	// Duplicates and exact bucket-boundary sites.
	dup, err := FromSites([]float64{0, 0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 0.875})
	if err != nil {
		t.Fatal(err)
	}
	spaces = append(spaces, dup)
	// A reseeded space must locate exactly like a fresh one.
	reseeded, err := NewRandom(512, r)
	if err != nil {
		t.Fatal(err)
	}
	reseeded.Reseed(r)
	spaces = append(spaces, reseeded)

	for _, sp := range spaces {
		sites := sp.Sites()
		n := len(sites)
		locs := []float64{0, math.Nextafter(1, 0)}
		for b := 0; b <= n && b < 80; b++ {
			x := float64(b) / float64(n)
			if x < 1 {
				locs = append(locs, x)
				if y := math.Nextafter(x, 1); y < 1 {
					locs = append(locs, y)
				}
			}
			if p := math.Nextafter(x, 0); p < 1 {
				locs = append(locs, p)
			}
		}
		for i := 0; i < n && i < 80; i++ {
			locs = append(locs, sites[i], math.Nextafter(sites[i], 0))
			if y := math.Nextafter(sites[i], 1); y < 1 {
				locs = append(locs, y)
			}
		}
		for i := 0; i < 10000; i++ {
			locs = append(locs, r.Float64())
		}
		for _, u := range locs {
			if got, want := sp.Locate(u), locateReference(sites, u); got != want {
				t.Fatalf("n=%d: Locate(%v) = %d, binary search says %d", n, u, got, want)
			}
		}
	}
}

// TestReseedMatchesNewRandom: reseeding consumes the same variates and
// produces a bit-identical space, including its index and derived views.
func TestReseedMatchesNewRandom(t *testing.T) {
	const n = 1000
	reused, err := NewRandom(n, rng.New(50))
	if err != nil {
		t.Fatal(err)
	}
	for trial := uint64(0); trial < 5; trial++ {
		r1 := rng.NewStream(51, trial)
		r2 := rng.NewStream(51, trial)
		fresh, err := NewRandom(n, r1)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reseed(r2)
		// The generators must be in identical states afterwards.
		if r1.Float64() != r2.Float64() {
			t.Fatal("Reseed consumed different variates than NewRandom")
		}
		fs, rs := fresh.Sites(), reused.Sites()
		for i := range fs {
			if fs[i] != rs[i] {
				t.Fatalf("trial %d: site %d differs: %v vs %v", trial, i, fs[i], rs[i])
			}
		}
		if fresh.MaxArc() != reused.MaxArc() {
			t.Fatalf("trial %d: MaxArc differs", trial)
		}
		probe := rng.New(52 + trial)
		for i := 0; i < 3000; i++ {
			u := probe.Float64()
			if fresh.Locate(u) != reused.Locate(u) {
				t.Fatalf("trial %d: Locate(%v) differs", trial, u)
			}
		}
	}
}

// TestSortedArcsCacheInvalidation: the cached descending arcs must
// refresh after Reseed.
func TestSortedArcsCacheInvalidation(t *testing.T) {
	sp, err := NewRandom(64, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	before := sp.SortedArcsDesc()
	if got := sp.TopArcSum(64); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TopArcSum(all) = %v, want 1", got)
	}
	sp.Reseed(rng.New(54))
	after := sp.SortedArcsDesc()
	if got := sp.TopArcSum(64); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TopArcSum(all) after Reseed = %v, want 1", got)
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("SortedArcsDesc unchanged after Reseed — stale cache")
	}
	// And it must agree with a from-scratch sort of the live arcs.
	want := append([]float64(nil), sp.ArcLengths()...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i, v := range want {
		if after[i] != v {
			t.Fatalf("cached sorted arc %d = %v, want %v", i, after[i], v)
		}
	}
}
