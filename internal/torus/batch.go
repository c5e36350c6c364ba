// Bulk nearest-site resolution: the cell-sorted batch kernel behind
// core's blocked placement pipeline.
//
// NearestBatch answers a whole block of queries at once, which buys
// two things a per-query loop cannot have:
//
//   - Cell order. Queries are sorted into grid-cell order with a
//     counting sort keyed by the flat home-cell index (the same order
//     the CSR structure stores sites in), so the block walks the index
//     front to back — consecutive queries hit the same or adjacent
//     rows and one query's scan warms the next one's — instead of
//     striding across it at random.
//   - Staged windows. The dim-2 and dim-3 kernels process queries in
//     windows of batchWindow, computing all home cells and run bounds
//     first (back-to-back loads with no intervening branches) and then
//     scanning each query's staged runs in a small leaf function whose
//     min-tracking lowers to integer conditional moves on the raw
//     distance bits. The runs are slot ranges of the one CSR layout
//     the scalar kernels read: a 3x3 home block is three row runs, a
//     3x3x3 brick nine z-column runs. Queries the fused block cannot
//     certify are deferred and settled after the window by a flat 5x5
//     (5x5x5) scan through the same leaf, with the scalar kernels'
//     shell walk (walk) reserved for the vanishing residue. Every
//     other dimension answers each sorted query with nearestN.
//
// Results are identical to calling Nearest per query — exact distance
// ties resolve to the lowest public site index through a cold re-scan,
// the shell walk beyond 5x5 is shared code — and the query order chosen
// by the sort is unobservable in the output. Winners are written back
// through the sort permutation, so out[i] always belongs to query i.
//
// Concurrency: NearestBatch uses the Space's own scratch and follows
// the package's usual rule (one goroutine per Space). NearestBatchInto
// takes the scratch explicitly and touches no other mutable Space state
// (the cells-scanned statistic is folded in atomically), so concurrent
// callers with distinct BatchScratch values — core.PlaceBatchParallel's
// workers — may batch over one unchanging Space simultaneously.
package torus

import (
	"fmt"
	"math"
	"sync/atomic"

	"geobalance/internal/geom"
)

// batchSortBuckets bounds the counting-sort bucket count. Grids with
// more cells than this are sorted by the top bits of the cell index —
// each bucket then covers a contiguous range of cells (at most a few
// dozen within one row), which preserves the locality the sort exists
// for while keeping the per-call bucket reset O(1) per query.
const batchSortBuckets = 1 << 11

// BatchScratch holds the per-call state of NearestBatchInto. Distinct
// scratch values make concurrent batches over one Space race-free; the
// zero value is ready to use and grows on demand.
type BatchScratch struct {
	key  []int32   // per-query sort key (home cell >> sortShift)
	ord  []int32   // query indices in key order
	cnt  []int32   // counting-sort buckets
	dq   []int32   // queries deferred to the shell walk (dim-2 kernel)
	dd   []float64 // their block-scan best squared distances
	home []int     // nearestN home cell coordinates
	offs []int     // nearestN shell odometer
}

// NearestBatch resolves len(out) nearest-site queries in one call.
// pts holds the query points packed point-major — query i's axis j at
// pts[i*Dim()+j] — and out[i] receives the site index Nearest would
// return for query i. It uses the Space's internal scratch; for
// concurrent batches over one Space use NearestBatchInto with distinct
// scratch values.
func (s *Space) NearestBatch(pts []float64, out []int32) {
	if s.bsc == nil {
		s.bsc = new(BatchScratch)
	}
	s.NearestBatchInto(s.bsc, pts, out)
}

// NearestBatchInto is NearestBatch with caller-provided scratch. It
// reads only immutable Space state (plus one atomic statistics update),
// so concurrent calls with distinct scratch values over an unchanging
// Space are safe.
func (s *Space) NearestBatchInto(sc *BatchScratch, pts []float64, out []int32) {
	dim := s.dim
	q := len(out)
	if len(pts) != q*dim {
		panic(fmt.Sprintf("torus: NearestBatch with %d coordinates for %d queries of dim %d",
			len(pts), q, dim))
	}
	if q == 0 {
		return
	}
	ord := s.sortByCell(sc, pts, q)
	var visits uint64
	switch dim {
	case 2:
		s.nearestBatch2(pts, out, ord, sc, &visits)
	case 3:
		s.nearestBatch3(pts, out, ord, sc, &visits)
	default:
		if cap(sc.home) < dim {
			sc.home = make([]int, dim)
			sc.offs = make([]int, dim)
		}
		home, offs := sc.home[:dim], sc.offs[:dim]
		for _, qi := range ord {
			p := geom.Vec(pts[int(qi)*dim : (int(qi)+1)*dim])
			best, _ := s.nearestN(p, home, offs, &visits)
			out[qi] = int32(best)
		}
	}
	atomic.AddUint64(&s.cellsScanned, visits)
}

// sortByCell fills sc.ord with the query indices ordered by home grid
// cell (ties by query index — the sort is stable) and returns it. The
// key is the flat cell index truncated to at most batchSortBuckets
// buckets, so sorting costs two passes over the queries plus one over
// the bucket array regardless of grid size.
func (s *Space) sortByCell(sc *BatchScratch, pts []float64, q int) []int32 {
	dim := s.dim
	g := s.g
	gf := float64(g)
	nc := pow(g, dim)
	shift := 0
	for nc>>shift > batchSortBuckets {
		shift++
	}
	nb := (nc-1)>>shift + 1
	if cap(sc.key) < q {
		sc.key = make([]int32, q)
		sc.ord = make([]int32, q)
	}
	if cap(sc.cnt) < nb+1 {
		sc.cnt = make([]int32, nb+1)
	}
	key := sc.key[:q]
	ord := sc.ord[:q]
	cnt := sc.cnt[:nb+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for i := 0; i < q; i++ {
		idx := 0
		base := i * dim
		for j := 0; j < dim; j++ {
			c := int(pts[base+j] * gf)
			if c >= g { // guard against coordinates one ulp below 1
				c = g - 1
			}
			idx = idx*g + c
		}
		k := int32(idx >> shift)
		key[i] = k
		cnt[k+1]++
	}
	for b := 0; b < nb; b++ {
		cnt[b+1] += cnt[b]
	}
	for i := 0; i < q; i++ {
		k := key[i]
		ord[cnt[k]] = int32(i)
		cnt[k]++
	}
	return ord
}

// scanRuns2 is the dim-2 leaf: the minimum squared distance over the
// CSR slot runs b[t]..e[t] — stage B passes a query's three staged row
// runs, the deferred pass the five rows of its 5x5 block. The minimum
// is tracked on the raw IEEE bits of the distance — order-isomorphic to
// the float order for the non-negative, non-NaN distances the kernel
// produces — so the compare-and-update lowers to integer conditional
// moves with no data-dependent branch. It lives in its own small
// function so the compiler register-allocates the whole loop (inlined
// into the big kernel body it spills). With strict-less updates
// bestSlot is the first slot in scan order attaining the minimum; a
// distance equal to the running minimum only sets sawTie (possibly
// stale — the caller re-scans exactly). The minimum and the flag carry
// across runs, so a tie between two runs is flagged like one within a
// run. The sentinel 1<<63 (the bits of -0.0) is above every distance
// and never compares equal.
//
//go:noinline
func scanRuns2(xy []float64, px, py float64, b, e []int32) (bestSlot int32, bestBits uint64, sawTie bool) {
	bestSlot = -1
	bestBits = uint64(1) << 63
	e = e[:len(b)]
	for t, k := range b {
		for ; k < e[t]; k++ {
			dx := geom.WrapDelta(px - xy[2*k])
			dy := geom.WrapDelta(py - xy[2*k+1])
			db := math.Float64bits(dx*dx + dy*dy)
			if db == bestBits {
				sawTie = true
			}
			if db < bestBits {
				bestSlot = k
			}
			if db < bestBits {
				bestBits = db
			}
		}
	}
	return bestSlot, bestBits, sawTie
}

// rescanTies2 resolves an exact distance tie with the contract's rule —
// the lowest public site index among the sites tied at the minimum — by
// re-scanning scanRuns2's runs with the exact comparison chain. Ties
// are essentially impossible for random sites, so this stays cold.
//
//go:noinline
func rescanTies2(xy []float64, perm []int32, px, py float64, b, e []int32) (int32, float64) {
	bestSlot := int32(-1)
	bestD2 := math.Inf(1)
	for t, k := range b {
		for ; k < e[t]; k++ {
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
	return bestSlot, bestD2
}

// nearestBatch2 answers cell-ordered dim=2 queries in two passes. The
// hot pass scans each query's fused 3x3 home block with no calls but
// the leaf and minimal live state (register-resident; the shared
// single-query kernel spills), writes each query's block winner, and
// records the queries whose block scan does not yet certify the winner.
// The second pass walks shells >= 2 for just those deferred queries —
// for uniform sites at the default grid density that is a small
// minority, so the branchy shell machinery stays off the common path
// entirely.
func (s *Space) nearestBatch2(pts []float64, out []int32, ord []int32, sc *BatchScratch, visits *uint64) {
	g := s.g
	gf := float64(g)
	wrapRow := s.wrapRow
	start := s.start
	xy := s.soa
	perm := s.perm
	cw := s.cellWidth
	if cap(sc.dq) < len(ord) {
		sc.dq = make([]int32, len(ord))
		sc.dd = make([]float64, len(ord))
	}
	dq, dd := sc.dq[:0], sc.dd
	nd := 0
	v := uint64(0)

	// The hot pass runs in windows of batchWindow queries, two stages
	// per window. Stage A walks the sorted queries once computing home
	// cells and loading the bounds of each query's three row runs: row
	// hx+o of the 3x3 home block is the contiguous CSR slot range
	// start[rb+hy-1]..start[rb+hy+2], so the six start[] loads issue back
	// to back with no intervening branches, and the loads of the whole
	// window overlap. Stage B then scans each query's staged runs with
	// everything register-resident. Queries whose column span wraps (hy
	// on the torus seam) and tiny grids are answered whole by nearest2
	// instead — a per-mille case at production densities.
	const batchWindow = 64
	var wqi [batchWindow]int32 // query index
	var wpx, wpy [batchWindow]float64
	var wthr [batchWindow]float64     // squared (1+mb)*cw certification radius
	var wb, we [3 * batchWindow]int32 // row run bounds, three per query
	var slow [batchWindow]int32       // wrap-column queries of this window
	staged := g >= 5
	for w := 0; w < len(ord); w += batchWindow {
		wn := len(ord) - w
		if wn > batchWindow {
			wn = batchWindow
		}
		na, ns := 0, 0
		// Stage A: home cells, certification radii, run bounds.
		for _, qi := range ord[w : w+wn] {
			px := pts[2*qi]
			py := pts[2*qi+1]
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
			if !staged || hy == 0 || hy == g-1 {
				slow[ns] = qi
				ns++
				continue
			}
			fx := cfx - float64(hx)
			fy := cfy - float64(hy)
			mb := min(fx, 1-fx, fy, 1-fy)
			lower := (1 + mb) * cw
			wqi[na] = qi
			wpx[na] = px
			wpy[na] = py
			wthr[na] = lower * lower
			hx += g
			r0 := int(wrapRow[hx-1]) + hy
			r1 := int(wrapRow[hx]) + hy
			r2 := int(wrapRow[hx+1]) + hy
			t := 3 * na
			wb[t], we[t] = start[r0-1], start[r0+2]
			wb[t+1], we[t+1] = start[r1-1], start[r1+2]
			wb[t+2], we[t+2] = start[r2-1], start[r2+2]
			na++
		}
		v += uint64(9 * na)
		// Stage B: scan the staged runs; exact distance ties
		// (essentially impossible for random sites, but the contract
		// demands the lowest public index among them) are flagged by
		// the leaf and resolved by a rare exact re-scan.
		for j := 0; j < na; j++ {
			px, py := wpx[j], wpy[j]
			b, e := wb[3*j:3*j+3], we[3*j:3*j+3]
			bestSlot, bestBits, sawTie := scanRuns2(xy, px, py, b, e)
			bestD2 := math.Float64frombits(bestBits)
			if bestSlot < 0 {
				bestD2 = math.Inf(1)
			}
			if sawTie {
				bestSlot, bestD2 = rescanTies2(xy, perm, px, py, b, e)
			}
			qi := wqi[j]
			best := int32(-1)
			if bestSlot >= 0 {
				best = perm[bestSlot]
			}
			out[qi] = best
			// Certification (the first iteration of walk's loop from
			// shell 2): defer when a shell >= 2 could still improve.
			if best < 0 || bestD2 > wthr[j] {
				dd[nd] = bestD2
				dq = append(dq, qi)
				nd++
			}
		}
		// Slow path: wrapping columns or a tiny grid, answered whole by
		// the single-query kernel.
		for _, qi := range slow[:ns] {
			best, _ := s.nearest2(pts[2*qi], pts[2*qi+1], &v)
			out[qi] = int32(best)
		}
	}
	sc.dq = dq // keep length observable (and the backing array growable)
	// Deferred pass: shell 2 and beyond. A deferred interior query scans
	// the flat 5x5 block around its home cell — five contiguous slot
	// runs, covering exactly the cells Nearest would have seen after its
	// shell-2 ring — and only escalates to the branchy shell machinery
	// when even the (2+mb) certification fails (vanishingly rare at the
	// default grid density).
	for i, qi := range dq {
		p := pts[2*qi : 2*qi+2]
		px, py := p[0], p[1]
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
		fx := cfx - float64(hx)
		fy := cfy - float64(hy)
		mb := min(fx, 1-fx, fy, 1-fy)
		hxb := hx + g
		home := [2]int{hxb, hy + g}
		if hy >= 2 && hy <= g-3 {
			var b5, e5 [5]int32
			for o := 0; o < 5; o++ {
				rb := int(wrapRow[hxb-2+o]) + hy
				b5[o] = start[rb-2]
				e5[o] = start[rb+3]
			}
			bestSlot, bestBits, sawTie := scanRuns2(xy, px, py, b5[:], e5[:])
			bestD2 := math.Float64frombits(bestBits)
			if bestSlot < 0 {
				bestD2 = math.Inf(1)
			}
			if sawTie {
				bestSlot, bestD2 = rescanTies2(xy, perm, px, py, b5[:], e5[:])
			}
			v += 25
			best := -1
			if bestSlot >= 0 {
				best = int(perm[bestSlot])
			}
			lower := (2 + mb) * cw
			if best >= 0 && bestD2 <= lower*lower {
				out[qi] = int32(best)
				continue
			}
			best, _ = s.walk(p, home[:], nil, mb, 3, best, bestD2, &v)
			out[qi] = int32(best)
			continue
		}
		// The 5x5 column span wraps (hy next to the seam): continue
		// from the block result through walk.
		best, _ := s.walk(p, home[:], nil, mb, 2, int(out[qi]), dd[i], &v)
		out[qi] = int32(best)
	}
	*visits += v
}

// scanRuns3 is the dim-3 leaf: scanRuns2 with the third coordinate
// unrolled — stage B passes a query's nine staged z-column runs, the
// deferred pass the 25 columns of its 5x5x5 block. Same bits-tracked
// min, and the same stale-tie contract across runs.
//
//go:noinline
func scanRuns3(xyz []float64, px, py, pz float64, b, e []int32) (bestSlot int32, bestBits uint64, sawTie bool) {
	bestSlot = -1
	bestBits = uint64(1) << 63
	e = e[:len(b)]
	for t, k := range b {
		for ; k < e[t]; k++ {
			dx := geom.WrapDelta(px - xyz[3*k])
			dy := geom.WrapDelta(py - xyz[3*k+1])
			dz := geom.WrapDelta(pz - xyz[3*k+2])
			db := math.Float64bits(dx*dx + dy*dy + dz*dz)
			if db == bestBits {
				sawTie = true
			}
			if db < bestBits {
				bestSlot = k
			}
			if db < bestBits {
				bestBits = db
			}
		}
	}
	return bestSlot, bestBits, sawTie
}

// rescanTies3 resolves an exact distance tie over scanRuns3's runs with
// the contract's lowest-public-index rule; cold by construction.
//
//go:noinline
func rescanTies3(xyz []float64, perm []int32, px, py, pz float64, b, e []int32) (int32, float64) {
	bestSlot := int32(-1)
	bestD2 := math.Inf(1)
	for t, k := range b {
		for ; k < e[t]; k++ {
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
	return bestSlot, bestD2
}

// nearestBatch3 is nearestBatch2's shape lifted to dim 3: stage A
// stages each window's home bricks as nine z-column runs — column
// (hx+xo, hy+yo) of the 3x3x3 brick is the contiguous CSR slot range
// start[rb+hz-1]..start[rb+hz+2] — stage B scans them with the
// register-resident leaf, and queries the (1+mb) bound cannot certify
// are settled after the block by a flat 5x5x5 scan with walk reserved
// for the residue. Queries on the z seam (where a column's z span wraps
// and is not one run) and tiny grids are answered whole by nearest3.
func (s *Space) nearestBatch3(pts []float64, out []int32, ord []int32, sc *BatchScratch, visits *uint64) {
	g := s.g
	gf := float64(g)
	wrapRow := s.wrapRow
	wrapPlane := s.wrapPlane
	start := s.start
	xyz := s.soa
	perm := s.perm
	cw := s.cellWidth
	if cap(sc.dq) < len(ord) {
		sc.dq = make([]int32, len(ord))
		sc.dd = make([]float64, len(ord))
	}
	dq, dd := sc.dq[:0], sc.dd
	nd := 0
	v := uint64(0)

	const batchWindow = 64
	var wqi [batchWindow]int32
	var wpx, wpy, wpz [batchWindow]float64
	var wthr [batchWindow]float64     // squared (1+mb)*cw certification radius
	var wb, we [9 * batchWindow]int32 // column run bounds, nine per query
	var slow [batchWindow]int32       // wrap-column queries of this window
	staged := g >= 5
	for w := 0; w < len(ord); w += batchWindow {
		wn := len(ord) - w
		if wn > batchWindow {
			wn = batchWindow
		}
		na, ns := 0, 0
		// Stage A: home cells, certification radii, run bounds.
		for _, qi := range ord[w : w+wn] {
			px := pts[3*qi]
			py := pts[3*qi+1]
			pz := pts[3*qi+2]
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
			if !staged || hz == 0 || hz == g-1 {
				slow[ns] = qi
				ns++
				continue
			}
			fx := cfx - float64(hx)
			fy := cfy - float64(hy)
			fz := cfz - float64(hz)
			mb := min(fx, 1-fx, fy, 1-fy, fz, 1-fz)
			lower := (1 + mb) * cw
			wqi[na] = qi
			wpx[na] = px
			wpy[na] = py
			wpz[na] = pz
			wthr[na] = lower * lower
			hx += g
			hy += g
			t := 9 * na
			for xo := -1; xo <= 1; xo++ {
				pb := int(wrapPlane[hx+xo]) + hz
				for yo := -1; yo <= 1; yo++ {
					rb := pb + int(wrapRow[hy+yo])
					wb[t], we[t] = start[rb-1], start[rb+2]
					t++
				}
			}
			na++
		}
		v += uint64(27 * na)
		// Stage B: scan the staged runs; exact ties resolve through the
		// cold exact re-scan.
		for j := 0; j < na; j++ {
			px, py, pz := wpx[j], wpy[j], wpz[j]
			b, e := wb[9*j:9*j+9], we[9*j:9*j+9]
			bestSlot, bestBits, sawTie := scanRuns3(xyz, px, py, pz, b, e)
			bestD2 := math.Float64frombits(bestBits)
			if bestSlot < 0 {
				bestD2 = math.Inf(1)
			}
			if sawTie {
				bestSlot, bestD2 = rescanTies3(xyz, perm, px, py, pz, b, e)
			}
			qi := wqi[j]
			best := int32(-1)
			if bestSlot >= 0 {
				best = perm[bestSlot]
			}
			out[qi] = best
			if best < 0 || bestD2 > wthr[j] {
				dd[nd] = bestD2
				dq = append(dq, qi)
				nd++
			}
		}
		// Slow path: wrapping z columns or a tiny grid, answered whole
		// by the single-query kernel.
		for _, qi := range slow[:ns] {
			best, _ := s.nearest3(pts[3*qi], pts[3*qi+1], pts[3*qi+2], &v)
			out[qi] = int32(best)
		}
	}
	sc.dq = dq // keep length observable (and the backing array growable)
	// Deferred pass: shell 2 and beyond. A deferred interior query scans
	// the flat 5x5x5 block around its home cell — 25 contiguous z-column
	// runs covering exactly the cells Nearest would have seen after its
	// shell-2 ring — and only escalates to walk when even the (2+mb)
	// certification fails.
	var offs [1]int
	for i, qi := range dq {
		p := pts[3*qi : 3*qi+3]
		px, py, pz := p[0], p[1], p[2]
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
		hxb := hx + g
		hyb := hy + g
		home := [3]int{hxb, hyb, hz + g}
		if hz >= 2 && hz <= g-3 {
			var b25, e25 [25]int32
			o := 0
			for xo := -2; xo <= 2; xo++ {
				pb := int(wrapPlane[hxb+xo])
				for yo := -2; yo <= 2; yo++ {
					rb := pb + int(wrapRow[hyb+yo]) + hz
					b25[o] = start[rb-2]
					e25[o] = start[rb+3]
					o++
				}
			}
			bestSlot, bestBits, sawTie := scanRuns3(xyz, px, py, pz, b25[:], e25[:])
			bestD2 := math.Float64frombits(bestBits)
			if bestSlot < 0 {
				bestD2 = math.Inf(1)
			}
			if sawTie {
				bestSlot, bestD2 = rescanTies3(xyz, perm, px, py, pz, b25[:], e25[:])
			}
			v += 125
			best := -1
			if bestSlot >= 0 {
				best = int(perm[bestSlot])
			}
			lower := (2 + mb) * cw
			if best >= 0 && bestD2 <= lower*lower {
				out[qi] = int32(best)
				continue
			}
			best, _ = s.walk(p, home[:], offs[:], mb, 3, best, bestD2, &v)
			out[qi] = int32(best)
			continue
		}
		// The 5x5x5 z span wraps (hz next to the seam): continue from
		// the brick result through walk.
		best, _ := s.walk(p, home[:], offs[:], mb, 2, int(out[qi]), dd[i], &v)
		out[qi] = int32(best)
	}
	*visits += v
}
