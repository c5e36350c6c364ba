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
// precomputed wrapped row/plane offset tables, the fused 3^dim home
// block scanned unconditionally as slot runs, branch-light min
// tracking) and to nearestN for any other dimension. Every dimension
// searches past its fused block in one shell walk (walk), which scans
// each shell as last-axis slot runs of the CSR arrays: nearestN from
// the home cell on, nearest2 and nearest3 from shell 2. Shells are
// enumerated by wrapped Chebyshev distance, so every grid cell is
// scanned at most once per query regardless of grid size and a walk
// terminates after g/2 shells.
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
	// wrapRow and wrapPlane premultiply by the axis strides g and g*g so
	// the dim-2/3 kernels compute flat cell indices with adds only.
	wrap      []int32 // built for every dim (walk reads it)
	wrapRow   []int32 // dims 2-3
	wrapPlane []int32 // dim 3

	// cellsScanned counts grid cells examined by nearest queries across
	// the Space's lifetime — instrumentation for the duplicate-scan
	// regression tests. The kernels accumulate into a local counter and
	// fold it in once per query (Nearest, non-atomically) or once per
	// batch (NearestBatchInto, atomically — concurrent batch workers
	// must not race on it).
	cellsScanned uint64

	// Per-space query scratch (see the package comment on concurrency).
	qbuf   geom.Vec      // sample point for ChooseBin/ChooseBinIn
	home   []int         // query cell coordinates (nearestN)
	offs   []int         // shell odometer (nearestN)
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
// sites in dim dimensions: about one site per cell in general, and
// about half a site per cell for dims 2-4 (the 3^dim block of shells 0
// and 1 then holds ~4-40 candidates instead of ~9-81, and the extra
// cells cost only slot-range arithmetic, not scans), which measured
// fastest for the dim-2/3 fused-block kernels — see the grid-density
// ablation benchmark. Dim 4 has no fused block; its density has not
// been re-measured since it moved to nearestN. WithSite/WithoutSite use
// it to decide when an incremental snapshot may inherit the prior grid.
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
// the current grid resolution. Row/plane tables are only materialized
// for the dimensions whose specialized kernels use them.
func (s *Space) buildWrapTables() {
	g := s.g
	if cap(s.wrap) < 3*g {
		s.wrap = make([]int32, 3*g)
	}
	s.wrap = s.wrap[:3*g]
	for j := range s.wrap {
		s.wrap[j] = int32(j % g)
	}
	if s.dim == 2 || s.dim == 3 {
		if cap(s.wrapRow) < 3*g {
			s.wrapRow = make([]int32, 3*g)
		}
		s.wrapRow = s.wrapRow[:3*g]
		for j, w := range s.wrap {
			s.wrapRow[j] = w * int32(g)
		}
	}
	if s.dim == 3 {
		if cap(s.wrapPlane) < 3*g {
			s.wrapPlane = make([]int32, 3*g)
		}
		s.wrapPlane = s.wrapPlane[:3*g]
		g2 := int32(g) * int32(g)
		for j, w := range s.wrap {
			s.wrapPlane[j] = w * g2
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
// and to nearestN otherwise; all kernels return the same (index,
// distance) pair a brute-force scan with lowest-index tie breaking
// would, up to ties at exactly the certification radius.
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
		best, bestD2 = s.nearestN(p, s.home, s.offs, &visits)
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
	return s.nearestN(p, home[:s.dim], offs[:s.dim], &visits)
}

// nearestN is the kernel for every dimension but 2 and 3: it locates
// p's home cell and walks the shells from 0. Scratch (home cell
// coordinates and the shell odometer, dim entries each) is provided by
// the caller so concurrent batch workers do not share state; Nearest
// passes the Space's own scratch.
func (s *Space) nearestN(p geom.Vec, home, offs []int, visits *uint64) (int, float64) {
	g := s.g
	gf := float64(g)
	mb := 0.5
	for j, x := range p {
		cf := x * gf
		c := int(cf)
		if c >= g {
			c = g - 1
		}
		home[j] = c + g // biased for the wrap table
		f := cf - float64(c)
		mb = min(mb, f, 1-f)
	}
	return s.walk(p, home, offs, mb, 0, -1, math.Inf(1), visits)
}

// walk continues a nearest-site search through the shells from..g/2 of
// wrapped Chebyshev cell distance around the query's home cell, after a
// scan that has covered every cell at distance < from, and returns the
// updated (best, bestD2). home holds the home cell's coordinates biased
// by +g, mb the query's distance to the nearest home cell boundary in
// cell units, and offs at least dim-2 entries of odometer scratch.
// Every dimension runs it: nearestN from shell 0, nearest2 and nearest3
// from shell 2 after their fused blocks, the batch kernels' deferred
// passes from shell 3 after their flat radius-2 scans.
//
// Certification (all kernels): every unvisited cell before shell s has
// wrapped Chebyshev cell distance >= s from the home cell, so any site
// it contains is at Euclidean distance at least (s-1+mb)*cellWidth
// from p, where mb in [0, 1/2] is p's distance to its nearest home
// cell boundary in cell units. Once bestD2 is at most that squared
// bound no further shell can improve it. (The mb refinement only
// tightens the classic (s-1)*cellWidth bound; the returned site is the
// exact argmin either way.)
//
// Offsets stay in the canonical wrapped range — the extremes are
// {-shell, +shell} while 2*shell < g, and just {+shell} when 2*shell ==
// g (the two wrap onto the same cell) — so no cell is scanned twice,
// across shells or within one, even on tiny grids. The CSR order makes
// a row's last-axis span of adjacent cells one slot run (two at the
// seam), fixed per shell: a row with an extreme leading coordinate is
// on the shell surface along its whole span and scans it, an interior
// row only its two extreme last-axis cells. An inner loop sweeps the
// second-to-last axis; an odometer steps the axes before it, keeping
// their part of the row base and their count of extreme coordinates
// up to date.
func (s *Space) walk(p geom.Vec, home, offs []int, mb float64, from, best int, bestD2 float64, visits *uint64) (int, float64) {
	g := s.g
	wrap := s.wrap
	cw := s.cellWidth
	last := len(p) - 1
	hz := home[last] // biased, like every home coordinate
	for shell := from; shell <= g/2; shell++ {
		if best >= 0 && shell >= 1 {
			lower := (float64(shell-1) + mb) * cw
			if lower > 0 && bestD2 <= lower*lower {
				break
			}
		}
		lo := -shell
		if 2*shell >= g {
			lo = 1 - shell // -shell wraps onto +shell; scan it once
		}
		// The last-axis span [hz+lo, hz+shell] relative to a row's cell
		// 0: z0..z1, and w0..w1 past the seam (empty unless it wraps);
		// zlo and zhi are its two extreme cells.
		z0, z1 := hz-g+lo, hz-g+shell
		w0, w1 := 0, -1
		if z0 < 0 {
			w0, w1, z0 = z0+g, g-1, 0
		} else if z1 >= g {
			w0, w1, z1 = 0, z1-g, g-1
		}
		zlo, zhi := int(wrap[hz-shell]), int(wrap[hz+shell])
		if last == 0 { // dim 1: the home cell, then two cells a shell
			if lo == -shell && shell > 0 {
				best, bestD2 = s.scanRun(p, zlo, zlo, best, bestD2, visits)
			}
			best, bestD2 = s.scanRun(p, zhi, zhi, best, bestD2, visits)
			continue
		}
		// rbo is the outer axes' part of the row base and nxo the number
		// of outer coordinates at ±shell.
		outer := offs[:last-1]
		rbo, nxo := 0, 0
		for j := range outer {
			outer[j] = lo
			rbo = (rbo + int(wrap[home[j]+lo])) * g
			if lo == -shell {
				nxo++
			}
		}
		hy := home[last-1]
		for {
			for o := lo; o <= shell; o++ {
				rb := (rbo + int(wrap[hy+o])) * g
				if nxo > 0 || o == shell || o == -shell {
					if w0 <= w1 {
						best, bestD2 = s.scanRun(p, rb+w0, rb+w1, best, bestD2, visits)
					}
					best, bestD2 = s.scanRun(p, rb+z0, rb+z1, best, bestD2, visits)
				} else {
					if lo == -shell {
						best, bestD2 = s.scanRun(p, rb+zlo, rb+zlo, best, bestD2, visits)
					}
					best, bestD2 = s.scanRun(p, rb+zhi, rb+zhi, best, bestD2, visits)
				}
			}
			j, stride := last-2, g
			for ; j >= 0; j-- {
				h, o := home[j], outer[j]
				if o < shell {
					rbo += (int(wrap[h+o+1]) - int(wrap[h+o])) * stride
					outer[j] = o + 1
					if o == -shell {
						nxo--
					}
					if o+1 == shell {
						nxo++
					}
					break
				}
				rbo += (int(wrap[h+lo]) - int(wrap[h+shell])) * stride
				outer[j] = lo
				if lo != -shell {
					nxo--
				}
				stride *= g
			}
			if j < 0 {
				break
			}
		}
	}
	return best, bestD2
}

// scanRun scans the slots of the adjacent cells [idx0, idx1], one CSR
// run, and returns the updated (best, bestD2): a nearer site wins, and
// an exactly tied one when its public index is lower. The distance sums
// the axes in order, as geom.TorusDist2 does.
func (s *Space) scanRun(p geom.Vec, idx0, idx1 int, best int, bestD2 float64, visits *uint64) (int, float64) {
	*visits += uint64(idx1 - idx0 + 1)
	soa := s.soa
	perm := s.perm
	k0, k1 := s.start[idx0], s.start[idx1+1]
	dim := len(p)
	for k := k0; k < k1; k++ {
		var d2 float64
		for j, x := range p {
			d := geom.WrapDelta(x - soa[int(k)*dim+j])
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
	// units (see walk's certification comment). The min
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
		// first iteration of walk's loop).
		lower := (1 + mb) * s.cellWidth
		if bestD2 <= lower*lower {
			return best, bestD2
		}
	}
	p := [2]float64{px, py}
	home := [2]int{hx, hy + g}
	return s.walk(p[:], home[:], nil, mb, 2, best, bestD2, visits)
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

// nearest3 is the dim=3 kernel, shaped like nearest2: the fused 3x3x3
// home brick is scanned unconditionally (nine z-column runs whose
// bounds are gathered up front), the (1+mb) certification settles the
// common case, and only the rare uncertified query continues into walk
// from shell 2.
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
	p := [3]float64{px, py, pz}
	home := [3]int{hx, hy, hz + g}
	var offs [1]int
	return s.walk(p[:], home[:], offs[:], mb, 2, best, bestD2, visits)
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
