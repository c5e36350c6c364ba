package torus

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// indexFields extracts the fields that determine query behavior, for
// structural comparison between spliced snapshots and from-scratch
// builds.
func indexFields(s *Space) map[string]any {
	coords := make([][]float64, len(s.sites))
	for i, v := range s.sites {
		coords[i] = append([]float64(nil), v...)
	}
	return map[string]any{
		"dim":    s.dim,
		"g":      s.g,
		"cw":     s.cellWidth,
		"sites":  coords,
		"start":  append([]int32(nil), s.start...),
		"perm":   append([]int32(nil), s.perm...),
		"slotOf": append([]int32(nil), s.slotOf...),
		"soa":    append([]float64(nil), s.soa...),
		"cellOf": append([]int32(nil), s.cellOf[:len(s.sites)]...),
		"wrap":   append([]int32(nil), s.wrap...),
	}
}

func mustEqualIndex(t *testing.T, got, want *Space, when string) {
	t.Helper()
	gf, wf := indexFields(got), indexFields(want)
	for k, gv := range gf {
		if !reflect.DeepEqual(gv, wf[k]) {
			t.Fatalf("%s: field %s diverges from from-scratch build\n got %v\nwant %v",
				when, k, gv, wf[k])
		}
	}
}

// TestWithSiteMatchesFromScratch drives a random add/remove churn
// sequence through the incremental snapshot path and checks, at every
// step, that the result is structurally identical to a from-scratch
// FromSites build over the same site list, that CheckIndex passes, and
// that queries agree with brute force.
func TestWithSiteMatchesFromScratch(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			r := rng.New(uint64(100 + dim))
			sites := make([]geom.Vec, 0, 64)
			randSite := func() geom.Vec {
				v := make(geom.Vec, dim)
				for j := range v {
					v[j] = r.Float64()
				}
				return v
			}
			for i := 0; i < 6; i++ {
				sites = append(sites, randSite())
			}
			sp, err := FromSites(append([]geom.Vec(nil), sites...), dim)
			if err != nil {
				t.Fatal(err)
			}
			q := make(geom.Vec, dim)
			for step := 0; step < 120; step++ {
				if len(sites) <= 2 || r.Intn(3) > 0 {
					p := randSite()
					if sp, err = sp.WithSite(p); err != nil {
						t.Fatalf("step %d WithSite: %v", step, err)
					}
					sites = append(sites, p)
				} else {
					i := r.Intn(len(sites))
					if sp, err = sp.WithoutSite(i); err != nil {
						t.Fatalf("step %d WithoutSite(%d): %v", step, i, err)
					}
					sites = append(sites[:i:i], sites[i+1:]...)
				}
				if err := sp.CheckIndex(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				want, err := FromSites(append([]geom.Vec(nil), sites...), dim)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualIndex(t, sp, want, fmt.Sprintf("step %d (n=%d)", step, len(sites)))
				for probe := 0; probe < 8; probe++ {
					sp.SampleInto(q, r)
					bi, bd := sp.NearestBrute(q)
					gi, gd := sp.Nearest(q)
					if gi != bi || gd != bd {
						t.Fatalf("step %d: Nearest = (%d, %v), brute (%d, %v)", step, gi, gd, bi, bd)
					}
					si, sd := sp.NearestShared(q)
					if si != bi || sd != bd {
						t.Fatalf("step %d: NearestShared = (%d, %v), brute (%d, %v)", step, si, sd, bi, bd)
					}
				}
			}
		})
	}
}

// TestWithSiteLeavesParentUntouched pins the immutability contract:
// building snapshots from a parent changes nothing the parent's
// concurrent readers could observe.
func TestWithSiteLeavesParentUntouched(t *testing.T) {
	r := rng.New(7)
	parent, err := NewRandom(300, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	before := indexFields(parent)
	add, err := parent.WithSite(geom.Vec{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.WithoutSite(17); err != nil {
		t.Fatal(err)
	}
	if _, err := add.WithoutSite(add.NumBins() - 1); err != nil {
		t.Fatal(err)
	}
	after := indexFields(parent)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("parent Space mutated by snapshot construction")
	}
	if err := parent.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	// A snapshot must stay fully operational on its own: Reseed (which
	// rebuilds cells in place) must not blow up on inherited buffers.
	add.Reseed(rng.New(9))
	if err := add.CheckIndex(); err != nil {
		t.Fatalf("after Reseed on snapshot: %v", err)
	}
}

// TestWithSiteGridFallback exercises the resolution-change path: when
// the default grid for n±1 differs from the inherited one, the
// snapshot must match a from-scratch build at the NEW resolution.
func TestWithSiteGridFallback(t *testing.T) {
	r := rng.New(11)
	// dim=1 uses g = n exactly, so every increment moves the resolution.
	sp, err := NewRandom(32, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if sp.GridCellsPerAxis() != 32 {
		t.Fatalf("g = %d, want 32", sp.GridCellsPerAxis())
	}
	nt, err := sp.WithSite(geom.Vec{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if nt.GridCellsPerAxis() != 33 {
		t.Fatalf("incremental snapshot kept g = %d, want 33", nt.GridCellsPerAxis())
	}
	want, err := FromSites(append(sp.cloneSites(-1, geom.Vec{0.5})[:32:32], nt.sites[32]), 1)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualIndex(t, nt, want, "dim-1 fallback")
}

// TestWithSiteValidation covers the error paths.
func TestWithSiteValidation(t *testing.T) {
	sp, err := FromSites([]geom.Vec{{0.1, 0.2}, {0.6, 0.7}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.WithSite(geom.Vec{0.5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := sp.WithSite(geom.Vec{0.5, 1.0}); err == nil {
		t.Error("coordinate 1.0 accepted")
	}
	if _, err := sp.WithSite(geom.Vec{0.5, math.NaN()}); err == nil {
		t.Error("NaN coordinate accepted")
	}
	if _, err := sp.WithoutSite(2); err == nil {
		t.Error("out-of-range removal accepted")
	}
	only, err := FromSites([]geom.Vec{{0.3, 0.3}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := only.WithoutSite(0); err == nil {
		t.Error("removing the last site accepted")
	}
}

// TestWithSiteClearsWeights pins that installed weights (which
// describe the old Voronoi cells) do not leak into snapshots.
func TestWithSiteClearsWeights(t *testing.T) {
	sp, err := NewRandom(16, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1.0 / 16
	}
	if err := sp.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	nt, err := sp.WithSite(geom.Vec{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if nt.HasWeights() {
		t.Error("snapshot inherited stale weights")
	}
	if !sp.HasWeights() {
		t.Error("parent lost its weights")
	}
}
