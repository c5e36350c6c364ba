package torus

import (
	"fmt"
	"math"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// TestTinyGridNoDuplicateCellScans pins the wrapped-Chebyshev shell
// enumeration: on a tiny grid, where the old offset walk wrapped shell
// offsets onto already-visited cells (and so re-scanned cells across
// shells once 2*shell+1 reached g), a query must examine each grid cell
// at most once — at most g^dim cell visits in total. The g=2 cases
// are the regression the enumeration rewrite was for: the old walk
// visited up to 25 offsets per 2-D query against the 4 distinct cells.
func TestTinyGridNoDuplicateCellScans(t *testing.T) {
	r := rng.New(91)
	cases := []struct {
		dim, g, n int
	}{
		{1, 2, 4}, {1, 5, 10},
		{2, 2, 8}, {2, 3, 12}, {2, 4, 20},
		{3, 2, 16}, {3, 3, 40}, {3, 4, 30}, {3, 5, 60},
		{4, 2, 32},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("dim=%d/g=%d", tc.dim, tc.g), func(t *testing.T) {
			sites := make([]geom.Vec, tc.n)
			for i := range sites {
				v := make(geom.Vec, tc.dim)
				for j := range v {
					v[j] = r.Float64()
				}
				sites[i] = v
			}
			sp, err := FromSitesGrid(sites, tc.dim, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			budget := uint64(pow(tc.g, tc.dim))
			p := make(geom.Vec, tc.dim)
			for q := 0; q < 300; q++ {
				sp.SampleInto(p, r)
				before := sp.cellsScanned
				sp.Nearest(p)
				if visits := sp.cellsScanned - before; visits > budget {
					t.Fatalf("query %d scanned %d cells on a g=%d grid with only %d cells",
						q, visits, tc.g, budget)
				}
			}
		})
	}
}

// TestCellsScannedExactTinyGrid: on the g=2, dim=2 grid no query can
// certify before the fused home block has covered the whole grid, so
// every query must scan exactly 4 cells — the bound above is tight.
func TestCellsScannedExactTinyGrid(t *testing.T) {
	r := rng.New(92)
	sites := make([]geom.Vec, 6)
	for i := range sites {
		sites[i] = geom.Vec{r.Float64(), r.Float64()}
	}
	sp, err := FromSitesGrid(sites, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := make(geom.Vec, 2)
	for q := 0; q < 200; q++ {
		sp.SampleInto(p, r)
		before := sp.cellsScanned
		sp.Nearest(p)
		if visits := sp.cellsScanned - before; visits != 4 {
			t.Fatalf("query %d scanned %d cells, want exactly 4", q, visits)
		}
	}
}

// TestPermSlotOfInvariant pins the cell-order index contract: perm and
// slotOf are inverse permutations, slots are grouped by CSR cell in
// ascending public order within each cell, and the SoA buffer holds
// exactly the public sites' coordinates under the permutation — so the
// public index semantics of Site/Sites/SetWeights survive any reorder.
func TestPermSlotOfInvariant(t *testing.T) {
	r := rng.New(97)
	for _, dim := range []int{1, 2, 3, 4} {
		sp, err := NewRandom(500, dim, r)
		if err != nil {
			t.Fatal(err)
		}
		for reseed := 0; reseed < 2; reseed++ {
			n := sp.NumBins()
			for slot := 0; slot < n; slot++ {
				pub := sp.perm[slot]
				if sp.slotOf[pub] != int32(slot) {
					t.Fatalf("dim=%d: slotOf[perm[%d]] = %d", dim, slot, sp.slotOf[pub])
				}
				site := sp.Site(int(pub))
				for j := 0; j < dim; j++ {
					if sp.soa[slot*dim+j] != site[j] {
						t.Fatalf("dim=%d: soa slot %d axis %d = %v, site %d has %v",
							dim, slot, j, sp.soa[slot*dim+j], pub, site[j])
					}
				}
			}
			// Slots within one cell must be in ascending public order
			// (the scatter pass walks public indices in order), which is
			// what keeps tie-breaking toward the lower public index.
			for c := 0; c < len(sp.start)-1; c++ {
				for k := sp.start[c] + 1; k < sp.start[c+1]; k++ {
					if sp.perm[k-1] >= sp.perm[k] {
						t.Fatalf("dim=%d: cell %d slots out of public order", dim, c)
					}
				}
			}
			sp.Reseed(r)
		}
	}
}

// TestWalkSparseFineGrid drives the shell walk through many shells and
// across the seam: a few sites in the middle of the torus on grids
// several times finer than gridFor's, queried near the seam (so every
// query is far from every site and its last-axis spans split) and at
// random. Nearest's distance must equal NearestBrute's, its index may
// differ only at an exact tie, NearestShared and NearestBatch must
// return what Nearest does, and no query may scan more than the grid's
// g^dim cells.
func TestWalkSparseFineGrid(t *testing.T) {
	const n, nq = 10, 80
	r := rng.New(98)
	fine := map[int]int{1: 64, 2: 24, 3: 12, 4: 8, 5: 8, 6: 6} // >= 3*gridFor(n, dim)
	for dim := 1; dim <= 6; dim++ {
		g := fine[dim]
		t.Run(fmt.Sprintf("dim=%d/g=%d", dim, g), func(t *testing.T) {
			if g < 3*gridFor(n, dim) {
				t.Fatalf("g=%d is not over-fine: gridFor gives %d", g, gridFor(n, dim))
			}
			sites := make([]geom.Vec, n)
			for i := range sites {
				v := make(geom.Vec, dim)
				for j := range v {
					v[j] = 0.25 + 0.5*r.Float64()
				}
				sites[i] = v
			}
			sp, err := FromSitesGrid(sites, dim, g)
			if err != nil {
				t.Fatal(err)
			}
			cw := 1 / float64(g)
			pts := make([]float64, 0, nq*dim)
			for q := 0; q < nq; q++ {
				for j := 0; j < dim; j++ {
					x := r.Float64()
					switch {
					case q%4 == 3: // random
					case r.Intn(2) == 0:
						x *= cw / 2
					default:
						x = math.Nextafter(1-x*cw/2, 0)
					}
					pts = append(pts, x)
				}
			}
			batch := make([]int32, nq)
			sp.NearestBatch(pts, batch)
			budget := uint64(pow(g, dim))
			for q := 0; q < nq; q++ {
				p := geom.Vec(pts[q*dim : (q+1)*dim])
				before := sp.cellsScanned
				gi, gd := sp.Nearest(p)
				if visits := sp.cellsScanned - before; visits > budget {
					t.Fatalf("query %v scanned %d cells of %d", p, visits, budget)
				}
				bi, bd := sp.NearestBrute(p)
				if gd != bd {
					t.Fatalf("query %v: Nearest (%d, %v), brute (%d, %v)", p, gi, gd, bi, bd)
				}
				if gi != bi && geom.TorusDist2(p, sp.Site(gi)) != bd {
					t.Fatalf("query %v: Nearest %d, brute %d without a tie", p, gi, bi)
				}
				if si, sd := sp.NearestShared(p); si != gi || sd != gd {
					t.Fatalf("query %v: NearestShared (%d, %v), Nearest (%d, %v)", p, si, sd, gi, gd)
				}
				if int(batch[q]) != gi {
					t.Fatalf("query %v: NearestBatch %d, Nearest %d", p, batch[q], gi)
				}
			}
		})
	}
}
