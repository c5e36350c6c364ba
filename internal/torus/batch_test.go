package torus

import (
	"fmt"
	"sync"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// batchQueries builds a query set that stresses the batch kernel's
// paths: the adversarial corner cases (seam coordinates, exact
// boundaries, the sites themselves), duplicated and identical query
// points (runs of equal sort keys), and random fill. Returned flat,
// point-major, as NearestBatch consumes them.
func batchQueries(sp *Space, dim, g int, r *rng.Rand) []float64 {
	qs := adversarialQueries(sp, dim, g, r)
	// Duplicate every fourth query, then append one point many times:
	// identical queries must produce identical answers and exercise the
	// same-cell run sharing.
	for i := 0; i < len(qs); i += 4 {
		qs = append(qs, qs[i])
	}
	dup := sp.Sample(r)
	for i := 0; i < 9; i++ {
		qs = append(qs, dup)
	}
	flat := make([]float64, 0, len(qs)*dim)
	for _, q := range qs {
		flat = append(flat, q...)
	}
	return flat
}

// TestNearestBatchAdversarialAgainstNearest pins the batch kernel to
// the single-query kernel site for site: NearestBatch must return
// exactly what Nearest returns for every query — including exact
// distance ties, where both resolve to the lowest public site index —
// on the adversarial layouts (clustered, boundary, 1-ulp-separated
// sites) across dimensions 1-4, with duplicate and identical query
// points in the batch. Agreement with NearestBrute (up to
// certification-radius ties) follows from the existing Nearest
// property tests.
func TestNearestBatchAdversarialAgainstNearest(t *testing.T) {
	r := rng.New(193)
	sizes := map[int]int{1: 64, 2: 256, 3: 343, 4: 256}
	// Grids below and at the staged kernels' minimum (g >= 5): dim=3
	// g=5 and g=7 take the staged nine-column-run path; dim=4 runs
	// nearestN per query, its walk splitting spans at the seam on g=4
	// and g=6 alike.
	grids := map[int][]int{1: {16}, 2: {4, 16}, 3: {4, 5, 7}, 4: {4, 6}}
	for dim := 1; dim <= 4; dim++ {
		for _, g := range grids[dim] {
			for name, sites := range adversarialLayouts(dim, g, sizes[dim], r) {
				t.Run(fmt.Sprintf("dim=%d/g=%d/%s", dim, g, name), func(t *testing.T) {
					sp, err := FromSitesGrid(sites, dim, g)
					if err != nil {
						t.Fatal(err)
					}
					pts := batchQueries(sp, dim, g, r)
					q := len(pts) / dim
					out := make([]int32, q)
					sp.NearestBatch(pts, out)
					for i := 0; i < q; i++ {
						p := geom.Vec(pts[i*dim : (i+1)*dim])
						want, _ := sp.Nearest(p)
						if int(out[i]) != want {
							t.Fatalf("query %d at %v: NearestBatch %d, Nearest %d",
								i, p, out[i], want)
						}
					}
				})
			}
		}
	}
}

// TestNearestBatchRandomLargeAgainstNearest runs the production-shaped
// configuration — random sites at the default grid density, a large
// batch — for the staged dim-2 path (interior, seam, and deferred
// queries all occur), the staged dim-3 path and nearestN.
func TestNearestBatchRandomLargeAgainstNearest(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			r := rng.New(uint64(211 + dim))
			sp, err := NewRandom(1<<12, dim, r)
			if err != nil {
				t.Fatal(err)
			}
			const q = 1 << 13
			pts := make([]float64, q*dim)
			for i := range pts {
				pts[i] = r.Float64()
			}
			// Force some queries onto the wrap seam (hy = 0 and g-1).
			g := sp.GridCellsPerAxis()
			for i := 0; i < q; i += 97 {
				pts[i*dim+(dim-1)] = float64(i%2) * (float64(g-1) / float64(g))
			}
			out := make([]int32, q)
			sp.NearestBatch(pts, out)
			for i := 0; i < q; i++ {
				want, _ := sp.Nearest(geom.Vec(pts[i*dim : (i+1)*dim]))
				if int(out[i]) != want {
					t.Fatalf("query %d: NearestBatch %d, Nearest %d", i, out[i], want)
				}
			}
		})
	}
}

// TestNearestBatchZeroAllocs guards the zero-alloc steady state: after
// one warmup call sizes the scratch, batches must not allocate.
func TestNearestBatchZeroAllocs(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			r := rng.New(uint64(223 + dim))
			sp, err := NewRandom(1<<10, dim, r)
			if err != nil {
				t.Fatal(err)
			}
			const q = 512
			pts := make([]float64, q*dim)
			for i := range pts {
				pts[i] = r.Float64()
			}
			out := make([]int32, q)
			sp.NearestBatch(pts, out) // warm the scratch
			if allocs := testing.AllocsPerRun(10, func() {
				sp.NearestBatch(pts, out)
			}); allocs != 0 {
				t.Fatalf("NearestBatch allocated %v times per run", allocs)
			}
		})
	}
}

// TestNearestBatchIntoConcurrent drives NearestBatchInto from several
// goroutines with distinct scratch values over one unchanging Space —
// the exact access pattern of core.PlaceBatchParallel's resolve phase —
// and checks every shard against the serial answers. Run with -race
// this also proves the scratch separation is complete.
func TestNearestBatchIntoConcurrent(t *testing.T) {
	r := rng.New(229)
	sp, err := NewRandom(1<<11, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	const q, workers = 1 << 13, 4
	pts := make([]float64, q*2)
	for i := range pts {
		pts[i] = r.Float64()
	}
	want := make([]int32, q)
	sp.NearestBatch(pts, want)

	got := make([]int32, q)
	var wg sync.WaitGroup
	chunk := q / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if w == workers-1 {
			hi = q
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := new(BatchScratch)
			sp.NearestBatchInto(sc, pts[lo*2:hi*2], got[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: concurrent %d, serial %d", i, got[i], want[i])
		}
	}
}

// TestNearestBatchTinyGrids covers grids below the staged kernel's
// minimum (g < 5), where every query takes the slow path and wrapped
// offsets coincide.
func TestNearestBatchTinyGrids(t *testing.T) {
	r := rng.New(233)
	for _, n := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			sp, err := NewRandom(n, 2, r)
			if err != nil {
				t.Fatal(err)
			}
			const q = 256
			pts := make([]float64, q*2)
			for i := range pts {
				pts[i] = r.Float64()
			}
			out := make([]int32, q)
			sp.NearestBatch(pts, out)
			for i := 0; i < q; i++ {
				want, _ := sp.Nearest(geom.Vec(pts[i*2 : (i+1)*2]))
				if int(out[i]) != want {
					t.Fatalf("query %d: NearestBatch %d, Nearest %d", i, out[i], want)
				}
			}
		})
	}
}

// TestNearestBatchTiesAcrossRuns pins exact-tie resolution between the
// slot runs the kernels scan: two sites at exactly equal distance from
// the query, in different runs of its 3x3 home block (rows in dim 2, z
// columns in dim 3), of the deferred 5x5 (5x5x5) block, or of walk's
// shell 1 (dims 1 and 4), with the higher public index in the run
// scanned first. NearestBatch must return the lower index, as Nearest
// does. The query is (0.5, ...) on a g=8 grid — home cell 4 on every
// axis, off the seam — and every coordinate is dyadic, so the distances
// tie exactly. Most cases tie before the block's last run, so a leaf
// that dropped its tie flag between runs would return the first-scanned
// site.
func TestNearestBatchTiesAcrossRuns(t *testing.T) {
	cases := []struct {
		name        string
		first, last geom.Vec // tied sites in the run scanned first and a later one
	}{
		// dim 2: the 3x3 block is rows 3, 4, 5, scanned in that order.
		{"dim=2/rows=3,5", geom.Vec{0.375, 0.5}, geom.Vec{0.625, 0.5}},
		{"dim=2/rows=3,4", geom.Vec{0.375, 0.5}, geom.Vec{0.5, 0.625}},
		{"dim=2/rows=4,5", geom.Vec{0.5, 0.375}, geom.Vec{0.625, 0.5}},
		// An empty 3x3 block defers the query to the 5x5 rows 2..6.
		{"dim=2/5x5/rows=2,4", geom.Vec{0.25, 0.5}, geom.Vec{0.5, 0.25}},
		// dim 3: the brick is columns (x, y) for x, y in 3..5, y fastest.
		{"dim=3/cols=(3,4),(5,4)", geom.Vec{0.375, 0.5, 0.5}, geom.Vec{0.625, 0.5, 0.5}},
		{"dim=3/cols=(3,4),(4,3)", geom.Vec{0.375, 0.5, 0.5}, geom.Vec{0.5, 0.375, 0.5}},
		{"dim=3/cols=(4,4),(4,5)", geom.Vec{0.5, 0.5, 0.375}, geom.Vec{0.5, 0.625, 0.5}},
		{"dim=3/5x5x5/cols=(2,4),(4,2)", geom.Vec{0.25, 0.5, 0.5}, geom.Vec{0.5, 0.25, 0.5}},
		// dims 1 and 4: walk's shell 1 scans offset -1 before +1, and
		// the odometer sweeps x before the last axis.
		{"dim=1/cells=3,5", geom.Vec{0.375}, geom.Vec{0.625}},
		{"dim=4/rows=(3,4,4),(4,4,4)", geom.Vec{0.375, 0.5, 0.5, 0.5}, geom.Vec{0.5, 0.5, 0.5, 0.625}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dim := len(tc.first)
			sp, err := FromSitesGrid([]geom.Vec{tc.last, tc.first}, dim, 8)
			if err != nil {
				t.Fatal(err)
			}
			q := make(geom.Vec, dim)
			for j := range q {
				q[j] = 0.5
			}
			if a, b := geom.TorusDist2(q, tc.first), geom.TorusDist2(q, tc.last); a != b {
				t.Fatalf("sites not tied: %v vs %v", a, b)
			}
			if want, _ := sp.Nearest(q); want != 0 {
				t.Fatalf("Nearest = %d, want the lower index 0", want)
			}
			out := make([]int32, 1)
			sp.NearestBatch(q, out)
			if out[0] != 0 {
				t.Fatalf("NearestBatch = %d, want the lower index 0", out[0])
			}
		})
	}
}

// TestNearestBatchAfterReseed checks that Reseed invalidates and
// rebuilds everything the batch kernel reads (the CSR arrays it stages
// its row runs from, and the wrap tables): a reseeded space must answer
// exactly like a freshly built one.
func TestNearestBatchAfterReseed(t *testing.T) {
	r1, r2 := rng.New(239), rng.New(239)
	sp, err := NewRandom(1<<10, 2, r1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRandom(1<<10, 2, r2)
	if err != nil {
		t.Fatal(err)
	}
	sp.Reseed(r1)
	fresh.Reseed(r2)
	r := rng.New(241)
	const q = 1024
	pts := make([]float64, q*2)
	for i := range pts {
		pts[i] = r.Float64()
	}
	a, b := make([]int32, q), make([]int32, q)
	sp.NearestBatch(pts, a)
	fresh.NearestBatch(pts, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: reseeded %d, fresh %d", i, a[i], b[i])
		}
	}
}
