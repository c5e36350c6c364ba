package torus

import (
	"fmt"
	"math"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// adversarialLayouts builds site sets designed to stress the grid
// index: every site crowded into one grid cell (maximally unbalanced
// CSR buckets), sites lying exactly on cell boundaries (the k/g corner
// cases of the home-cell computation), and a mix of both with random
// filler. The explicit grid resolution g makes "one cell" and "on the
// boundary" exact, not approximate.
func adversarialLayouts(dim, g, n int, r *rng.Rand) map[string][]geom.Vec {
	cw := 1 / float64(g)
	clustered := make([]geom.Vec, n)
	for i := range clustered {
		v := make(geom.Vec, dim)
		for j := range v {
			// Strictly inside cell (0.3*g? no — cell index floor(0.3/cw)):
			// all coordinates inside one fixed cell's interior.
			v[j] = cw * (0.25 + 0.5*r.Float64())
		}
		clustered[i] = v
	}
	boundaries := make([]geom.Vec, n)
	for i := range boundaries {
		v := make(geom.Vec, dim)
		for j := range v {
			v[j] = cw * float64(r.Intn(g)) // exact cell-boundary multiples
		}
		boundaries[i] = v
	}
	mixed := make([]geom.Vec, n)
	for i := range mixed {
		v := make(geom.Vec, dim)
		for j := range v {
			switch r.Intn(3) {
			case 0:
				v[j] = cw * float64(r.Intn(g))
			case 1:
				v[j] = math.Nextafter(cw*float64(1+r.Intn(g-1)), 0)
			default:
				v[j] = r.Float64()
			}
			mixed[i] = v
		}
	}
	return map[string][]geom.Vec{
		"clustered":  clustered,
		"boundaries": boundaries,
		"mixed":      mixed,
	}
}

// adversarialQueries returns query points at the wraparound and
// boundary extremes plus random fill: the origin, coordinates one ulp
// below 1 (which must still land in the last cell), exact boundary
// multiples, and the sites themselves.
func adversarialQueries(sp *Space, dim, g int, r *rng.Rand) []geom.Vec {
	cw := 1 / float64(g)
	ulp1 := math.Nextafter(1, 0)
	var qs []geom.Vec
	zero := make(geom.Vec, dim)
	qs = append(qs, zero)
	top := make(geom.Vec, dim)
	for j := range top {
		top[j] = ulp1
	}
	qs = append(qs, top)
	for q := 0; q < 40; q++ {
		v := make(geom.Vec, dim)
		for j := range v {
			switch r.Intn(4) {
			case 0:
				v[j] = cw * float64(r.Intn(g))
			case 1:
				v[j] = ulp1
			case 2:
				v[j] = 0
			default:
				v[j] = r.Float64()
			}
		}
		qs = append(qs, v)
	}
	for i := 0; i < sp.NumBins(); i += 7 {
		qs = append(qs, sp.Site(i))
	}
	for q := 0; q < 60; q++ {
		qs = append(qs, sp.Sample(r))
	}
	return qs
}

// TestNearestAdversarialAgainstBrute checks Nearest (all three kernels)
// against the exhaustive scan on the adversarial layouts, across
// dimensions 1-4. The squared distances must agree exactly — the
// kernels and geom.TorusDist2 compute bit-identical distances — and the
// indices must agree except at exact distance ties, which both sides
// are allowed to break differently only when the distances tie.
func TestNearestAdversarialAgainstBrute(t *testing.T) {
	r := rng.New(93)
	sizes := map[int]int{1: 64, 2: 256, 3: 343, 4: 256}
	grids := map[int]int{1: 16, 2: 16, 3: 7, 4: 4}
	for dim := 1; dim <= 4; dim++ {
		g := grids[dim]
		for name, sites := range adversarialLayouts(dim, g, sizes[dim], r) {
			t.Run(fmt.Sprintf("dim=%d/%s", dim, name), func(t *testing.T) {
				sp, err := FromSitesGrid(sites, dim, g)
				if err != nil {
					t.Fatal(err)
				}
				for qi, p := range adversarialQueries(sp, dim, g, r) {
					gi, gd := sp.Nearest(p)
					bi, bd := sp.NearestBrute(p)
					if gd != bd {
						t.Fatalf("query %d at %v: grid distance %v != brute %v (sites %d vs %d)",
							qi, p, gd, bd, gi, bi)
					}
					if gi != bi && geom.TorusDist2(p, sp.Site(gi)) != geom.TorusDist2(p, sp.Site(bi)) {
						t.Fatalf("query %d at %v: grid site %d vs brute %d without a distance tie",
							qi, p, gi, bi)
					}
				}
			})
		}
	}
}

// TestChooseDAdversarialAgainstBrute replays one ball's d choices,
// drawn by ChooseBin and by ChooseBinIn, through a duplicated variate
// stream and SampleInto + NearestBrute: each bin must be a brute-force
// nearest site of exactly the location the duplicated stream produces,
// on the same adversarial layouts the kernel test uses.
func TestChooseDAdversarialAgainstBrute(t *testing.T) {
	r := rng.New(94)
	sizes := map[int]int{1: 48, 2: 196, 3: 216, 4: 256}
	grids := map[int]int{1: 12, 2: 14, 3: 6, 4: 4}
	for dim := 1; dim <= 4; dim++ {
		g := grids[dim]
		for name, sites := range adversarialLayouts(dim, g, sizes[dim], r) {
			t.Run(fmt.Sprintf("dim=%d/%s", dim, name), func(t *testing.T) {
				sp, err := FromSitesGrid(sites, dim, g)
				if err != nil {
					t.Fatal(err)
				}
				const d = 3
				p := make(geom.Vec, dim)
				r1, r2 := rng.New(95), rng.New(95)
				for it := 0; it < 200; it++ {
					for k := 0; k < d; k++ {
						got := sp.ChooseBin(r1)
						sp.SampleInto(p, r2)
						bi, bd := sp.NearestBrute(p)
						if got != bi && geom.TorusDist2(p, sp.Site(got)) != bd {
							t.Fatalf("iter %d choice %d: ChooseBin bin %d vs brute %d without a tie", it, k, got, bi)
						}
					}
				}
				r3, r4 := rng.New(96), rng.New(96)
				for it := 0; it < 200; it++ {
					for k := 0; k < d; k++ {
						got := sp.ChooseBinIn(r3, k, d)
						p[0] = (float64(k) + r4.Float64()) / d
						for j := 1; j < dim; j++ {
							p[j] = r4.Float64()
						}
						bi, bd := sp.NearestBrute(p)
						if got != bi && geom.TorusDist2(p, sp.Site(got)) != bd {
							t.Fatalf("iter %d stratum %d: ChooseBinIn bin %d vs brute %d without a tie", it, k, got, bi)
						}
					}
				}
			})
		}
	}
}
