// Package torus implements the k-dimensional unit torus of Section 3 of
// the paper: server sites placed uniformly at random in [0,1)^k with
// wraparound, where each site owns its Voronoi cell (the set of locations
// nearer to it than to any other site under the wraparound Euclidean
// metric).
//
// Nearest-neighbor resolution uses a uniform grid index (about two
// cells per site for the dimensions with specialized kernels, one
// otherwise); queries expand over cell shells outward from the query
// point until the current best distance certifies that no unexamined
// cell can contain a closer site. For uniformly placed sites this gives
// O(1) expected query time, which is what makes the paper's n = 2^20
// torus simulations tractable.
//
// # Storage layout
//
// The grid index stores site coordinates twice. The public view is
// sites[i], one geom.Vec per public site index, which Site, Sites and
// Reseed operate on — their semantics are unchanged by the fast path.
// The query kernels instead read a flat coordinate buffer soa, permuted
// into grid-cell (CSR) order, so scanning a cell — or a whole row of
// adjacent cells, which the CSR order makes one contiguous slot range
// start[c0]..start[c1+1] — streams through memory instead of
// pointer-chasing one heap slice per candidate. This cell-ordered CSR
// layout (start, perm, soa) is the only one the kernels read: a query's
// 3x3 home block is three row runs and a 3x3x3 brick nine z-column runs
// (one more run per row or column on the torus seam), for the scalar
// and the batch kernels alike. Within the buffer a slot's coordinates
// are packed site-major (axis j of slot k at soa[k*dim+j]): every
// candidate needs all of its coordinates for the distance test, so
// packing them on one cache line measures faster than per-axis slabs,
// whose second slab costs a second memory stream. perm maps a cell slot
// back to the public site index (perm[k] = i) and slotOf is its inverse
// (slotOf[i] = k); all results, weights, and tie breaks are expressed
// in public indices, so callers never observe the permutation.
//
// # Query kernels
//
// Nearest dispatches to dimension-specialized kernels for dim 2 and 3
// (unrolled wrapped distances, modular cell arithmetic hoisted into
// precomputed wrapped row/plane offset tables, branch-light min
// tracking) with a generic odometer kernel for any other dimension.
// Shells are enumerated by wrapped Chebyshev distance, so every grid
// cell is scanned at most once per query regardless of grid size (the
// previous enumeration re-scanned wrapped cells across shells once
// 2*shell+1 reached g) and the walk terminates after g/2 shells.
//
// The placement hot path (ChooseBin/ChooseBinIn) samples into a
// per-space scratch vector, so a query performs no heap allocation and
// has no dimension cap. NearestBatch (batch.go) answers whole blocks of
// queries through a cell-sorted bulk kernel — the engine behind core's
// blocked placement pipeline. Reseed redraws the sites of an existing
// Space in place, reusing the site storage and grid buffers (and
// consuming exactly the variates NewRandom would), so simulation trials
// can recycle one Space instead of rebuilding the index allocation from
// scratch.
//
// Concurrency: the methods that use the per-space scratch or statistics
// counters — Nearest, Locate, ChooseBin, ChooseBinIn, NearestBatch —
// and of course Reseed are NOT safe for concurrent use; run placement
// on one Space per goroutine. The read-only accessors and the methods
// that keep their state on the stack or in caller-provided buffers —
// Site, Sites, Weight, SampleInto, NearestBrute, WithinRadius, and
// NearestBatchInto with a caller-owned scratch — remain safe for
// concurrent readers of an unchanging Space (internal/voronoi's
// parallel workers and core.PlaceBatchParallel's resolve shards depend
// on exactly that set; extend it with care).
package torus

import (
	"fmt"
	"math"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// Space is a fixed set of server sites on the unit k-torus together with
// a grid index for nearest-neighbor queries. It implements the core.Space
// contract for point type geom.Vec.
//
// Cell areas (bin weights) are not computed by default — the basic
// d-choice process does not need them. Call SetWeights (e.g. with exact
// areas from the voronoi package) to enable weight-based tie-breaking;
// until then Weight returns NaN.
type Space struct {
	dim     int
	sites   []geom.Vec
	weights []float64 // nil until SetWeights

	// Grid index in CSR layout over cell-ordered SoA coordinates, the
	// only site layout the query kernels read (see the package comment
	// on the storage layout): cells c0..c1 of one row are the slot run
	// start[c0]..start[c1+1].
	g         int       // cells per axis
	cellWidth float64   // 1/g
	start     []int32   // len g^dim+1; bucket boundaries
	perm      []int32   // len n; perm[slot] = public site index
	slotOf    []int32   // len n; inverse of perm
	soa       []float64 // len n*dim; axis j of slot k at soa[k*dim+j]

	// Wrapped cell-coordinate tables, each of length 3g and indexed by
	// a biased coordinate c+g for c in [-g, 2g): wrap[c+g] = c mod g.
	// wrapRow, wrapPlane, and wrapCube premultiply by the axis strides
	// g, g*g, and g*g*g so the dim-2/3/4 kernels compute flat cell
	// indices with adds only.
	wrap      []int32 // built for every dim (the generic kernel uses it)
	wrapRow   []int32 // dims 2-4
	wrapPlane []int32 // dims 3-4
	wrapCube  []int32 // dim 4

	// cellsScanned counts grid cells examined by nearest queries across
	// the Space's lifetime — instrumentation for the duplicate-scan
	// regression tests. The kernels accumulate into a local counter and
	// fold it in once per query (Nearest, non-atomically) or once per
	// batch (NearestBatchInto, atomically — concurrent batch workers
	// must not race on it).
	cellsScanned uint64

	// Per-space query scratch (see the package comment on concurrency).
	qbuf   geom.Vec      // sample point for ChooseBin/ChooseBinIn
	home   []int         // query cell coordinates (generic kernel)
	offs   []int         // shell odometer (generic kernel)
	cellOf []int32       // rebuildCells scratch
	cursor []int32       // rebuildCells scratch
	bsc    *BatchScratch // NearestBatch scratch (lazily allocated)
}

// NewRandom places n sites independently and uniformly at random on the
// dim-dimensional unit torus. dim must be at least 1 and n at least 1.
func NewRandom(n, dim int, r *rng.Rand) (*Space, error) {
	if n < 1 {
		return nil, fmt.Errorf("torus: need at least 1 site, got %d", n)
	}
	if dim < 1 {
		return nil, fmt.Errorf("torus: dimension must be >= 1, got %d", dim)
	}
	sites := make([]geom.Vec, n)
	flat := make([]float64, n*dim) // single allocation backing all sites
	for i := range sites {
		v := flat[i*dim : (i+1)*dim : (i+1)*dim]
		for j := range v {
			v[j] = r.Float64()
		}
		sites[i] = v
	}
	return FromSites(sites, dim)
}

// FromSitesGrid is FromSites with an explicit grid resolution
// (cellsPerAxis), exposed for the index-density ablation benchmarks;
// cellsPerAxis <= 0 selects the default density (see buildGrid).
func FromSitesGrid(sites []geom.Vec, dim, cellsPerAxis int) (*Space, error) {
	sp, err := FromSites(sites, dim)
	if err != nil {
		return nil, err
	}
	if cellsPerAxis > 0 && cellsPerAxis != sp.g {
		sp.g = cellsPerAxis
		sp.cellWidth = 1 / float64(cellsPerAxis)
		sp.rebuildCells()
	}
	return sp, nil
}

// FromSites builds a Space from explicit site positions. Every site must
// have the given dimension with coordinates in [0, 1).
func FromSites(sites []geom.Vec, dim int) (*Space, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("torus: no sites")
	}
	if dim < 1 {
		return nil, fmt.Errorf("torus: dimension must be >= 1, got %d", dim)
	}
	for i, s := range sites {
		if len(s) != dim {
			return nil, fmt.Errorf("torus: site %d has dimension %d, want %d", i, len(s), dim)
		}
		for j, c := range s {
			if c < 0 || c >= 1 || math.IsNaN(c) {
				return nil, fmt.Errorf("torus: site %d coordinate %d = %v outside [0,1)", i, j, c)
			}
		}
	}
	sp := &Space{
		dim:   dim,
		sites: sites,
		qbuf:  make(geom.Vec, dim),
		home:  make([]int, dim),
		offs:  make([]int, dim),
	}
	sp.buildGrid()
	return sp, nil
}

// Reseed redraws all sites independently and uniformly at random and
// refreshes the grid index, reusing the Space's buffers. It consumes
// exactly the same n*dim Float64 variates NewRandom would (coordinates
// in site-major order), so for a given generator state the resulting
// Space matches a freshly constructed one. Installed weights are
// cleared (they described the old cells).
func (s *Space) Reseed(r *rng.Rand) {
	for _, site := range s.sites {
		for j := range site {
			site[j] = r.Float64()
		}
	}
	s.weights = nil
	s.rebuildCells()
}

// gridFor returns the default grid resolution (cells per axis) for n
// sites in dim dimensions. The generic kernel gets about one site per
// cell; for the dim-2/3/4 run-scanning kernels about half a site per
// cell measures fastest (the fused 3^dim home block then holds ~4-40
// candidates instead of ~9-81, and the extra cells cost only
// slot-range arithmetic, not scans) — see the grid-density ablation
// benchmark. WithSite/WithoutSite use it to decide when an incremental
// snapshot may inherit the prior grid.
func gridFor(n, dim int) int {
	target := float64(n)
	if dim >= 2 && dim <= 4 {
		target = 2 * float64(n)
	}
	g := int(math.Round(math.Pow(target, 1/float64(dim))))
	if g < 1 {
		g = 1
	}
	// Cap total cells to avoid pathological memory for high dim.
	for pow(g, dim) > 4*n && g > 1 {
		g--
	}
	return g
}

// buildGrid constructs the CSR grid at the default resolution.
func (s *Space) buildGrid() {
	g := gridFor(len(s.sites), s.dim)
	s.g = g
	s.cellWidth = 1 / float64(g)
	s.rebuildCells()
}

// rebuildCells refills the CSR buckets, the cell-ordered SoA coordinate
// buffer, and the perm/slotOf maps for the current grid resolution,
// reusing previously allocated buffers when their capacity allows (the
// Reseed path always does, since n and g are unchanged).
func (s *Space) rebuildCells() {
	n := len(s.sites)
	dim := s.dim
	nc := pow(s.g, dim)
	if cap(s.start) < nc+1 {
		s.start = make([]int32, nc+1)
	}
	// Checked separately from start: snapshot-built Spaces (WithSite,
	// WithoutSite) arrive with a full start array but no scratch.
	if cap(s.cursor) < nc {
		s.cursor = make([]int32, nc)
	}
	counts := s.start[:nc+1]
	for i := range counts {
		counts[i] = 0
	}
	if cap(s.cellOf) < n {
		s.cellOf = make([]int32, n)
		s.perm = make([]int32, n)
		s.slotOf = make([]int32, n)
		s.soa = make([]float64, n*dim)
	}
	cellOf := s.cellOf[:n]
	for i, site := range s.sites {
		c := s.cellIndex(site)
		cellOf[i] = int32(c)
		counts[c+1]++
	}
	for c := 0; c < nc; c++ {
		counts[c+1] += counts[c]
	}
	s.start = counts
	s.perm = s.perm[:n]
	s.slotOf = s.slotOf[:n]
	soa := s.soa[:n*dim]
	cursor := s.cursor[:nc]
	copy(cursor, counts[:nc])
	for i, site := range s.sites {
		c := cellOf[i]
		slot := cursor[c]
		cursor[c] = slot + 1
		s.perm[slot] = int32(i)
		s.slotOf[i] = slot
		for j := 0; j < dim; j++ {
			soa[int(slot)*dim+j] = site[j]
		}
	}
	s.buildWrapTables()
}

// buildWrapTables (re)builds the biased modular-coordinate tables for
// the current grid resolution. Row/plane/cube tables are only
// materialized for the dimensions whose specialized kernels use them.
func (s *Space) buildWrapTables() {
	g := s.g
	if cap(s.wrap) < 3*g {
		s.wrap = make([]int32, 3*g)
	}
	s.wrap = s.wrap[:3*g]
	for j := range s.wrap {
		s.wrap[j] = int32(j % g)
	}
	if s.dim >= 2 && s.dim <= 4 {
		if cap(s.wrapRow) < 3*g {
			s.wrapRow = make([]int32, 3*g)
		}
		s.wrapRow = s.wrapRow[:3*g]
		for j, w := range s.wrap {
			s.wrapRow[j] = w * int32(g)
		}
	}
	if s.dim == 3 || s.dim == 4 {
		if cap(s.wrapPlane) < 3*g {
			s.wrapPlane = make([]int32, 3*g)
		}
		s.wrapPlane = s.wrapPlane[:3*g]
		g2 := int32(g) * int32(g)
		for j, w := range s.wrap {
			s.wrapPlane[j] = w * g2
		}
	}
	if s.dim == 4 {
		if cap(s.wrapCube) < 3*g {
			s.wrapCube = make([]int32, 3*g)
		}
		s.wrapCube = s.wrapCube[:3*g]
		g3 := int32(g) * int32(g) * int32(g)
		for j, w := range s.wrap {
			s.wrapCube[j] = w * g3
		}
	}
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// cellIndex returns the flat grid cell index of point p.
func (s *Space) cellIndex(p geom.Vec) int {
	idx := 0
	for j := 0; j < s.dim; j++ {
		c := int(p[j] * float64(s.g))
		if c >= s.g { // guard against p[j] == 1-ulp rounding up
			c = s.g - 1
		}
		idx = idx*s.g + c
	}
	return idx
}

// NumBins returns the number of sites.
func (s *Space) NumBins() int { return len(s.sites) }

// Dim returns the torus dimension.
func (s *Space) Dim() int { return s.dim }

// Site returns the position of site i. The returned slice is shared.
func (s *Space) Site(i int) geom.Vec { return s.sites[i] }

// Sites returns all site positions. The returned slice is shared.
func (s *Space) Sites() []geom.Vec { return s.sites }

// Sample draws a location uniformly at random on the torus. The returned
// vector is freshly allocated; hot loops should use SampleInto.
func (s *Space) Sample(r *rng.Rand) geom.Vec {
	v := make(geom.Vec, s.dim)
	s.SampleInto(v, r)
	return v
}

// SampleInto fills v with a uniform location. len(v) must equal Dim().
func (s *Space) SampleInto(v geom.Vec, r *rng.Rand) {
	for j := range v {
		v[j] = r.Float64()
	}
}

// Weight returns the Voronoi cell measure of bin i if weights have been
// set (see SetWeights), else NaN.
func (s *Space) Weight(i int) float64 {
	if s.weights == nil {
		return math.NaN()
	}
	return s.weights[i]
}

// SetWeights installs per-bin region measures (e.g. exact Voronoi areas).
// len(w) must equal NumBins. Weights are indexed by public site index,
// unaffected by the internal cell ordering.
func (s *Space) SetWeights(w []float64) error {
	if len(w) != len(s.sites) {
		return fmt.Errorf("torus: got %d weights for %d sites", len(w), len(s.sites))
	}
	s.weights = w
	return nil
}

// HasWeights reports whether bin weights have been installed.
func (s *Space) HasWeights() bool { return s.weights != nil }

// Locate returns the index of the site nearest to p under the wraparound
// Euclidean metric (ties broken toward the lower site index, an event of
// probability zero in the continuous model).
func (s *Space) Locate(p geom.Vec) int {
	best, _ := s.Nearest(p)
	return best
}

// Nearest returns the nearest site index and its squared distance to p.
// It dispatches to the dimension-specialized kernels for dim 2 and 3
// and to the generic odometer kernel otherwise; all kernels return the
// same (index, distance) pair a brute-force scan with lowest-index tie
// breaking would, up to ties at exactly the certification radius.
func (s *Space) Nearest(p geom.Vec) (int, float64) {
	if len(p) != s.dim {
		panic(fmt.Sprintf("torus: query dimension %d, want %d", len(p), s.dim))
	}
	var visits uint64
	var best int
	var bestD2 float64
	switch s.dim {
	case 2:
		best, bestD2 = s.nearest2(p[0], p[1], &visits)
	case 3:
		best, bestD2 = s.nearest3(p[0], p[1], p[2], &visits)
	default:
		best, bestD2 = s.nearestGeneric(p, s.home, s.offs, &visits)
	}
	s.cellsScanned += visits
	return best, bestD2
}

// sharedScratchDims bounds the dimensions NearestShared can serve from
// stack scratch; higher dimensions fall back to a per-call allocation.
const sharedScratchDims = 8

// NearestShared is Nearest for concurrent readers of an unchanging
// Space: it returns exactly what Nearest would, but keeps all scratch
// on the caller's stack (a per-call allocation above sharedScratchDims
// dimensions) and does not update the cells-scanned statistic, so any
// number of goroutines may query one Space simultaneously. It is the
// serving-path entry point behind router.Geo's lock-free candidate
// resolution; simulation code should keep using Nearest, whose
// statistics feed the duplicate-scan regression tests.
func (s *Space) NearestShared(p geom.Vec) (int, float64) {
	if len(p) != s.dim {
		panic(fmt.Sprintf("torus: query dimension %d, want %d", len(p), s.dim))
	}
	var visits uint64
	switch s.dim {
	case 2:
		return s.nearest2(p[0], p[1], &visits)
	case 3:
		return s.nearest3(p[0], p[1], p[2], &visits)
	}
	var homeArr, offsArr [sharedScratchDims]int
	home, offs := homeArr[:], offsArr[:]
	if s.dim > sharedScratchDims {
		home = make([]int, s.dim)
		offs = make([]int, s.dim)
	}
	return s.nearestGeneric(p, home[:s.dim], offs[:s.dim], &visits)
}

// nearestGeneric is the any-dimension kernel: shells of wrapped
// Chebyshev cell distance are walked iteratively with an odometer over
// the space's scratch (no recursion, no allocation). Because offsets
// are kept in the canonical wrapped range, every cell is visited at
// most once per query and the walk ends after g/2 shells.
//
// Certification (all kernels): every unvisited cell before shell s has
// wrapped Chebyshev cell distance >= s from the home cell, so any site
// it contains is at Euclidean distance at least (s-1+mb)*cellWidth
// from p, where mb in [0, 1/2] is p's distance to its nearest home
// cell boundary in cell units. Once bestD2 is at most that squared
// bound no further shell can improve it. (The mb refinement only
// tightens the classic (s-1)*cellWidth bound; the returned site is the
// exact argmin either way.)
// Scratch (home cell coordinates and the shell odometer) is provided by
// the caller so concurrent batch workers do not share state; Nearest
// passes the Space's own scratch.
func (s *Space) nearestGeneric(p geom.Vec, home, offs []int, visits *uint64) (int, float64) {
	g := s.g
	gf := float64(g)
	mb := 0.5
	for j := 0; j < s.dim; j++ {
		cf := p[j] * gf
		c := int(cf)
		if c >= g {
			c = g - 1
		}
		home[j] = c + g // biased for the wrap table
		f := cf - float64(c)
		if f < mb {
			mb = f
		}
		if 1-f < mb {
			mb = 1 - f
		}
	}
	best := -1
	bestD2 := math.Inf(1)
	sMax := g / 2
	cw := s.cellWidth
	for shell := 0; ; shell++ {
		if best >= 0 && shell >= 1 {
			lower := (float64(shell-1) + mb) * cw
			if lower > 0 && bestD2 <= lower*lower {
				break
			}
		}
		best, bestD2 = s.scanShell(p, home, offs, shell, best, bestD2, visits)
		if shell >= sMax {
			break // every cell has been visited exactly once
		}
	}
	return best, bestD2
}

// scanShell visits all grid cells at wrapped Chebyshev offset exactly
// shell from the (biased) home coordinates and updates the best site.
// Offsets are restricted to the canonical wrapped range: the extremes
// are {-shell, +shell} while 2*shell < g, and just {+shell} when
// 2*shell == g (the two wrap onto the same cell), so no cell is ever
// scanned twice — across shells or within one — even on tiny grids.
// The surface of the offset hypercube is walked with the usual
// odometer: the leading dim-1 axes sweep the canonical range, and the
// last axis visits only its extremes unless an earlier axis is already
// extreme.
func (s *Space) scanShell(p geom.Vec, home, offs []int, shell, best int, bestD2 float64, visits *uint64) (int, float64) {
	dim := s.dim
	offs = offs[:dim]
	if shell == 0 {
		for j := range offs {
			offs[j] = 0
		}
		return s.scanCell(p, home, offs, best, bestD2, visits)
	}
	lo := -shell
	if 2*shell >= s.g {
		lo = 1 - shell
	}
	for j := range offs[:dim-1] {
		offs[j] = lo
	}
	for {
		extreme := false
		for _, o := range offs[:dim-1] {
			if o == shell || o == -shell {
				extreme = true
				break
			}
		}
		if extreme {
			for o := lo; o <= shell; o++ {
				offs[dim-1] = o
				best, bestD2 = s.scanCell(p, home, offs, best, bestD2, visits)
			}
		} else {
			if lo == -shell {
				offs[dim-1] = -shell
				best, bestD2 = s.scanCell(p, home, offs, best, bestD2, visits)
			}
			offs[dim-1] = shell
			best, bestD2 = s.scanCell(p, home, offs, best, bestD2, visits)
		}
		// Advance the leading dim-1 axes.
		j := dim - 2
		for ; j >= 0; j-- {
			offs[j]++
			if offs[j] <= shell {
				break
			}
			offs[j] = lo
		}
		if j < 0 {
			return best, bestD2
		}
	}
}

// scanCell scans the SoA slots of the grid cell at home+offs (wrapped).
func (s *Space) scanCell(p geom.Vec, home, offs []int, best int, bestD2 float64, visits *uint64) (int, float64) {
	*visits++
	dim := s.dim
	wrap := s.wrap
	idx := 0
	for j := 0; j < dim; j++ {
		idx = idx*s.g + int(wrap[home[j]+offs[j]])
	}
	soa := s.soa
	perm := s.perm
	for k := s.start[idx]; k < s.start[idx+1]; k++ {
		var d2 float64
		for j := 0; j < dim; j++ {
			d := geom.WrapDelta(p[j] - soa[int(k)*dim+j])
			d2 += d * d
		}
		if d2 <= bestD2 {
			pk := int(perm[k])
			if d2 < bestD2 || pk < best {
				best, bestD2 = pk, d2
			}
		}
	}
	return best, bestD2
}

// nearest2 is the dim=2 kernel: wrapped distances unrolled, modular
// cell arithmetic replaced by the precomputed wrapRow/wrap tables, and
// the shell surface written as explicit row loops. Because the CSR
// permutation orders slots by flat cell index, a row's whole column
// span is (up to one wraparound split) a single contiguous SoA run —
// the two extreme rows of a shell each scan as one or two runs, and
// only interior rows fall back to single-cell runs for their extreme
// columns.
func (s *Space) nearest2(px, py float64, visits *uint64) (int, float64) {
	g := s.g
	gf := float64(g)
	cfx := px * gf
	hx := int(cfx)
	if hx >= g {
		hx = g - 1
	}
	cfy := py * gf
	hy := int(cfy)
	if hy >= g {
		hy = g - 1
	}
	// mb: distance from p to the nearest home cell boundary, in cell
	// units (see nearestGeneric's certification comment). The min
	// builtin keeps it branch-free — each comparison is a coin flip.
	fx := cfx - float64(hx)
	fy := cfy - float64(hy)
	mb := min(fx, 1-fx, fy, 1-fy)
	xy := s.soa
	perm := s.perm
	hx += g // bias once; all offsets stay within the 3g wrap tables

	// Fused shells 0+1: with about one site per cell almost every query
	// ends up scanning the whole wrapped 3x3 block around the home cell,
	// so scan it unconditionally, one contiguous slot run per row (two
	// when the column span wraps). Gathering the run bounds first issues
	// the start[] loads back to back, and the single scan loop over
	// predictable ~3-site runs avoids the branchy per-cell surface walk
	// for the shells that matter.
	runs, nr, cells := s.buildRuns2(hx, hy)
	*visits += cells
	// Track the best slot, resolving the public index only on exact
	// distance ties (and once at the end) — the common-case loop never
	// touches perm. The winner is the lowest public index among the
	// sites tied at the minimum, as everywhere else.
	bestSlot := int32(-1)
	bestD2 := math.Inf(1)
	for t := 0; t < nr; t++ {
		for k := runs[t][0]; k < runs[t][1]; k++ {
			dx := geom.WrapDelta(px - xy[2*k])
			dy := geom.WrapDelta(py - xy[2*k+1])
			d2 := dx*dx + dy*dy
			if d2 < bestD2 {
				bestSlot, bestD2 = k, d2
			} else if d2 == bestD2 && bestSlot >= 0 && perm[k] < perm[bestSlot] {
				bestSlot = k
			}
		}
	}
	best := -1
	if bestSlot >= 0 {
		best = int(perm[bestSlot])
		// Fast certification for the common case: the fused block
		// already proves no shell >= 2 can improve on the best (the
		// first iteration of nearest2Tail's loop).
		lower := (1 + mb) * s.cellWidth
		if bestD2 <= lower*lower {
			return best, bestD2
		}
	}
	return s.nearest2Tail(px, py, hx, hy, mb, best, bestD2, visits, 2)
}

// buildRuns2 assembles the contiguous slot runs covering the wrapped
// 3x3 block around home cell (hx, hy) — hx biased by +g — one run per
// row, two when the column span wraps, the whole (deduplicated) grid
// when g <= 2. It returns the runs, their count, and the number of
// distinct cells covered. The batch kernel sends its seam queries to
// nearest2 whole, so the seam handling lives in exactly one place.
func (s *Space) buildRuns2(hx, hy int) (runs [6][2]int32, nr int, cells uint64) {
	g := s.g
	wrapRow := s.wrapRow
	start := s.start
	r0, r1 := hx-1, hx+1
	c0, c1 := hy-1, hy+1
	if g <= 2 { // offsets -1 and +1 wrap onto each other
		r0, r1 = g, 2*g-1
		c0, c1 = 0, g-1
	}
	for ro := r0; ro <= r1; ro++ {
		rb := int(wrapRow[ro])
		a0, a1 := c0, c1
		if a0 < 0 {
			runs[nr] = [2]int32{start[rb+a0+g], start[rb+g]}
			nr++
			a0 = 0
		} else if a1 >= g {
			runs[nr] = [2]int32{start[rb], start[rb+a1-g+1]}
			nr++
			a1 = g - 1
		}
		runs[nr] = [2]int32{start[rb+a0], start[rb+a1+1]}
		nr++
	}
	return runs, nr, uint64((r1 - r0 + 1) * (c1 - c0 + 1))
}

// nearest2Tail walks shells startShell.. for the dim=2 kernels,
// continuing from a scan that has already covered every cell at wrapped
// Chebyshev distance < startShell. hx is already biased by +g; mb is
// the query's distance to its nearest home cell boundary in cell units.
// Shared by nearest2 (startShell 2, after the fused block) and the
// batch kernel (startShell 3, after its flat 5x5 scan) so the shell
// enumeration and certification live in exactly one place.
func (s *Space) nearest2Tail(px, py float64, hx, hy int, mb float64, best int, bestD2 float64, visits *uint64, startShell int) (int, float64) {
	g := s.g
	sMax := g / 2
	if sMax < startShell {
		return best, bestD2 // the prior scan covered the whole grid
	}
	wrap := s.wrap
	wrapRow := s.wrapRow
	cw := s.cellWidth
	for shell := startShell; ; shell++ {
		if best >= 0 {
			lower := (float64(shell-1) + mb) * cw
			if bestD2 <= lower*lower {
				break
			}
		}
		lo := -shell
		if 2*shell >= g {
			lo = 1 - shell // -shell wraps onto +shell; scan it once
		}
		// Rows at wrapped distance exactly shell: full column span.
		best, bestD2 = s.scanRow2(int(wrapRow[hx+shell]), hy+lo, hy+shell, px, py, best, bestD2, visits)
		if lo == -shell {
			best, bestD2 = s.scanRow2(int(wrapRow[hx-shell]), hy+lo, hy+shell, px, py, best, bestD2, visits)
		}
		// Interior rows: only the extreme columns.
		cHi := int(wrap[hy+shell+g])
		cLo := int(wrap[hy-shell+g])
		for ro := 1 - shell; ro <= shell-1; ro++ {
			rb := int(wrapRow[hx+ro])
			best, bestD2 = s.scanRun2(rb+cHi, rb+cHi, px, py, best, bestD2, visits)
			if lo == -shell {
				best, bestD2 = s.scanRun2(rb+cLo, rb+cLo, px, py, best, bestD2, visits)
			}
		}
		if shell >= sMax {
			break
		}
	}
	return best, bestD2
}

// scanRow2 scans columns [c0, c1] (unwrapped, c1-c0+1 <= g) of the row
// with flat base rb, splitting at the wraparound boundary into at most
// two contiguous runs.
func (s *Space) scanRow2(rb, c0, c1 int, px, py float64, best int, bestD2 float64, visits *uint64) (int, float64) {
	g := s.g
	if c0 < 0 {
		best, bestD2 = s.scanRun2(rb+c0+g, rb+g-1, px, py, best, bestD2, visits)
		c0 = 0
	} else if c1 >= g {
		best, bestD2 = s.scanRun2(rb, rb+c1-g, px, py, best, bestD2, visits)
		c1 = g - 1
	}
	return s.scanRun2(rb+c0, rb+c1, px, py, best, bestD2, visits)
}

// scanRun2 scans the contiguous SoA slot range covering the adjacent
// cells [idx0, idx1] with the dim=2 distance unrolled.
func (s *Space) scanRun2(idx0, idx1 int, px, py float64, best int, bestD2 float64, visits *uint64) (int, float64) {
	*visits += uint64(idx1 - idx0 + 1)
	xy := s.soa
	perm := s.perm
	for k := s.start[idx0]; k < s.start[idx1+1]; k++ {
		dx := geom.WrapDelta(px - xy[2*k])
		dy := geom.WrapDelta(py - xy[2*k+1])
		d2 := dx*dx + dy*dy
		if d2 <= bestD2 {
			pk := int(perm[k])
			if d2 < bestD2 || pk < best {
				best, bestD2 = pk, d2
			}
		}
	}
	return best, bestD2
}

// nearest3 is the dim=3 kernel, shaped like nearest2: the fused 3x3x3
// home brick is scanned unconditionally (nine z-column runs whose
// bounds are gathered up front), the (1+mb) certification settles the
// common case, and only the rare uncertified query continues into the
// branchy shell machinery of nearest3Tail.
func (s *Space) nearest3(px, py, pz float64, visits *uint64) (int, float64) {
	g := s.g
	gf := float64(g)
	cfx := px * gf
	hx := int(cfx)
	if hx >= g {
		hx = g - 1
	}
	cfy := py * gf
	hy := int(cfy)
	if hy >= g {
		hy = g - 1
	}
	cfz := pz * gf
	hz := int(cfz)
	if hz >= g {
		hz = g - 1
	}
	fx := cfx - float64(hx)
	fy := cfy - float64(hy)
	fz := cfz - float64(hz)
	mb := min(fx, 1-fx, fy, 1-fy, fz, 1-fz)
	xyz := s.soa
	perm := s.perm
	hx += g // bias once; all offsets stay within the 3g wrap tables
	hy += g
	runs, nr, cells := s.buildRuns3(hx, hy, hz)
	*visits += cells
	bestSlot := int32(-1)
	bestD2 := math.Inf(1)
	for t := 0; t < nr; t++ {
		for k := runs[t][0]; k < runs[t][1]; k++ {
			dx := geom.WrapDelta(px - xyz[3*k])
			dy := geom.WrapDelta(py - xyz[3*k+1])
			dz := geom.WrapDelta(pz - xyz[3*k+2])
			d2 := dx*dx + dy*dy + dz*dz
			if d2 < bestD2 {
				bestSlot, bestD2 = k, d2
			} else if d2 == bestD2 && bestSlot >= 0 && perm[k] < perm[bestSlot] {
				bestSlot = k
			}
		}
	}
	best := -1
	if bestSlot >= 0 {
		best = int(perm[bestSlot])
		// Fast certification for the common case: the fused brick
		// already proves no shell >= 2 can improve on the best.
		lower := (1 + mb) * s.cellWidth
		if bestD2 <= lower*lower {
			return best, bestD2
		}
	}
	return s.nearest3Tail(px, py, pz, hx, hy, hz, mb, best, bestD2, visits, 2)
}

// buildRuns3 assembles the contiguous slot runs covering the wrapped
// 3x3x3 brick around home cell (hx, hy, hz) — hx and hy biased by +g,
// hz unbiased — one z-column run per (x, y) row, two when the z span
// wraps, the whole (deduplicated) grid when g <= 2. The batch kernel
// sends its seam queries to nearest3 whole, so the seam handling lives
// in exactly one place.
func (s *Space) buildRuns3(hx, hy, hz int) (runs [18][2]int32, nr int, cells uint64) {
	g := s.g
	start := s.start
	if g <= 2 { // offsets -1 and +1 wrap onto each other: whole grid
		nc := g * g * g
		runs[0] = [2]int32{start[0], start[nc]}
		return runs, 1, uint64(nc)
	}
	wrapRow := s.wrapRow
	wrapPlane := s.wrapPlane
	c0, c1 := hz-1, hz+1
	for xo := -1; xo <= 1; xo++ {
		pb := int(wrapPlane[hx+xo])
		for yo := -1; yo <= 1; yo++ {
			rb := pb + int(wrapRow[hy+yo])
			a0, a1 := c0, c1
			if a0 < 0 {
				runs[nr] = [2]int32{start[rb+a0+g], start[rb+g]}
				nr++
				a0 = 0
			} else if a1 >= g {
				runs[nr] = [2]int32{start[rb], start[rb+a1-g+1]}
				nr++
				a1 = g - 1
			}
			runs[nr] = [2]int32{start[rb+a0], start[rb+a1+1]}
			nr++
		}
	}
	return runs, nr, 27
}

// nearest3Tail walks shells startShell.. for the dim=3 kernels,
// continuing from a scan that has already covered every cell at wrapped
// Chebyshev distance < startShell. hx and hy are already biased by +g;
// mb is the query's distance to its nearest home cell boundary in cell
// units. The two extreme planes of a shell scan their full y/z block
// (each y row one or two contiguous z runs), interior planes scan their
// extreme rows as z runs and only the extreme z columns of interior
// rows. Shared by nearest3 (startShell 2, after the fused brick) and
// the batch kernel (startShell 3, after its flat 5x5x5 scan) so the
// shell enumeration and certification live in exactly one place.
func (s *Space) nearest3Tail(px, py, pz float64, hx, hy, hz int, mb float64, best int, bestD2 float64, visits *uint64, startShell int) (int, float64) {
	g := s.g
	sMax := g / 2
	if sMax < startShell {
		return best, bestD2 // the prior scan covered the whole grid
	}
	wrap := s.wrap
	wrapRow := s.wrapRow
	wrapPlane := s.wrapPlane
	cw := s.cellWidth
	for shell := startShell; ; shell++ {
		if best >= 0 {
			lower := (float64(shell-1) + mb) * cw
			if bestD2 <= lower*lower {
				break
			}
		}
		lo := -shell
		if 2*shell >= g {
			lo = 1 - shell // -shell wraps onto +shell; scan it once
		}
		// Planes at wrapped x-distance exactly shell: full y/z block.
		pb := int(wrapPlane[hx+shell])
		for yo := lo; yo <= shell; yo++ {
			rb := pb + int(wrapRow[hy+yo])
			best, bestD2 = s.scanRow3(rb, hz+lo, hz+shell, px, py, pz, best, bestD2, visits)
		}
		if lo == -shell {
			pb = int(wrapPlane[hx-shell])
			for yo := lo; yo <= shell; yo++ {
				rb := pb + int(wrapRow[hy+yo])
				best, bestD2 = s.scanRow3(rb, hz+lo, hz+shell, px, py, pz, best, bestD2, visits)
			}
		}
		// Interior planes.
		zHi := int(wrap[hz+shell+g])
		zLo := int(wrap[hz-shell+g])
		for xo := 1 - shell; xo <= shell-1; xo++ {
			pb = int(wrapPlane[hx+xo])
			// Extreme rows: full z span.
			rb := pb + int(wrapRow[hy+shell])
			best, bestD2 = s.scanRow3(rb, hz+lo, hz+shell, px, py, pz, best, bestD2, visits)
			if lo == -shell {
				rb = pb + int(wrapRow[hy-shell])
				best, bestD2 = s.scanRow3(rb, hz+lo, hz+shell, px, py, pz, best, bestD2, visits)
			}
			// Interior rows: extreme z columns only.
			for yo := 1 - shell; yo <= shell-1; yo++ {
				rb = pb + int(wrapRow[hy+yo])
				best, bestD2 = s.scanRun3(rb+zHi, rb+zHi, px, py, pz, best, bestD2, visits)
				if lo == -shell {
					best, bestD2 = s.scanRun3(rb+zLo, rb+zLo, px, py, pz, best, bestD2, visits)
				}
			}
		}
		if shell >= sMax {
			break
		}
	}
	return best, bestD2
}

// scanRow3 scans z columns [c0, c1] (unwrapped, c1-c0+1 <= g) of the
// row with flat base rb, splitting at the wraparound boundary into at
// most two contiguous runs.
func (s *Space) scanRow3(rb, c0, c1 int, px, py, pz float64, best int, bestD2 float64, visits *uint64) (int, float64) {
	g := s.g
	if c0 < 0 {
		best, bestD2 = s.scanRun3(rb+c0+g, rb+g-1, px, py, pz, best, bestD2, visits)
		c0 = 0
	} else if c1 >= g {
		best, bestD2 = s.scanRun3(rb, rb+c1-g, px, py, pz, best, bestD2, visits)
		c1 = g - 1
	}
	return s.scanRun3(rb+c0, rb+c1, px, py, pz, best, bestD2, visits)
}

// scanRun3 scans the contiguous SoA slot range covering the adjacent
// cells [idx0, idx1] with the dim=3 distance unrolled.
func (s *Space) scanRun3(idx0, idx1 int, px, py, pz float64, best int, bestD2 float64, visits *uint64) (int, float64) {
	*visits += uint64(idx1 - idx0 + 1)
	xyz := s.soa
	perm := s.perm
	for k := s.start[idx0]; k < s.start[idx1+1]; k++ {
		dx := geom.WrapDelta(px - xyz[3*k])
		dy := geom.WrapDelta(py - xyz[3*k+1])
		dz := geom.WrapDelta(pz - xyz[3*k+2])
		d2 := dx*dx + dy*dy + dz*dz
		if d2 <= bestD2 {
			pk := int(perm[k])
			if d2 < bestD2 || pk < best {
				best, bestD2 = pk, d2
			}
		}
	}
	return best, bestD2
}

// ChooseBin draws a uniform location on the torus (into the per-space
// scratch vector) and returns its bin (nearest site). It implements
// core.Space without heap allocation.
func (s *Space) ChooseBin(r *rng.Rand) int {
	s.SampleInto(s.qbuf, r)
	best, _ := s.Nearest(s.qbuf)
	return best
}

// ChooseBinIn draws a location uniformly from the kth of d equal-measure
// strata of the torus (slabs along the first axis: x0 in [k/d, (k+1)/d))
// and returns its bin. It implements core.StratifiedSpace, extending the
// paper's go-left variant to the torus.
func (s *Space) ChooseBinIn(r *rng.Rand, k, d int) int {
	if d < 1 || k < 0 || k >= d {
		panic(fmt.Sprintf("torus: ChooseBinIn stratum %d of %d", k, d))
	}
	v := s.qbuf
	v[0] = (float64(k) + r.Float64()) / float64(d)
	for j := 1; j < s.dim; j++ {
		v[j] = r.Float64()
	}
	best, _ := s.Nearest(v)
	return best
}

// NearestBrute returns the nearest site by exhaustive scan. It exists for
// property tests and tiny inputs.
func (s *Space) NearestBrute(p geom.Vec) (int, float64) {
	best := -1
	bestD2 := math.Inf(1)
	for i, site := range s.sites {
		d2 := geom.TorusDist2(p, site)
		if d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, bestD2
}

// WithinRadius appends to dst the indices of all sites within Euclidean
// distance r of p (wraparound metric) and returns the extended slice.
// The order of results is unspecified.
func (s *Space) WithinRadius(p geom.Vec, r float64, dst []int) []int {
	if len(p) != s.dim {
		panic(fmt.Sprintf("torus: query dimension %d, want %d", len(p), s.dim))
	}
	if r < 0 {
		return dst
	}
	r2 := r * r
	// Number of cells to extend in each direction so that every cell
	// intersecting the r-ball is covered.
	reach := int(math.Ceil(r/s.cellWidth)) + 1
	if 2*reach+1 >= s.g {
		// Ball covers (essentially) the whole grid: scan everything once.
		for i, site := range s.sites {
			if geom.TorusDist2(p, site) <= r2 {
				dst = append(dst, i)
			}
		}
		return dst
	}
	var homeArr [8]int
	home := homeArr[:0]
	for j := 0; j < s.dim; j++ {
		c := int(p[j] * float64(s.g))
		if c >= s.g {
			c = s.g - 1
		}
		home = append(home, c)
	}
	var offs [8]int
	return s.enumBall(home, offs[:0], reach, p, r2, dst)
}

func (s *Space) enumBall(home, offs []int, reach int, p geom.Vec, r2 float64, dst []int) []int {
	axis := len(offs)
	if axis == s.dim {
		idx := 0
		for j := 0; j < s.dim; j++ {
			c := (home[j] + offs[j]) % s.g
			if c < 0 {
				c += s.g
			}
			idx = idx*s.g + c
		}
		for _, si := range s.perm[s.start[idx]:s.start[idx+1]] {
			if geom.TorusDist2(p, s.sites[si]) <= r2 {
				dst = append(dst, int(si))
			}
		}
		return dst
	}
	for o := -reach; o <= reach; o++ {
		dst = s.enumBall(home, append(offs, o), reach, p, r2, dst)
	}
	return dst
}

// GridCellsPerAxis returns the grid resolution, exposed for the ablation
// benchmarks on index density.
func (s *Space) GridCellsPerAxis() int { return s.g }
