// Package ring implements the one-dimensional geometric space of the
// paper's Theorem 1: n server sites placed independently and uniformly at
// random on the boundary of a circle of circumference 1. Each site owns
// the counterclockwise arc from itself to the next site; a location drawn
// uniformly from the circle is assigned to the site whose arc contains it.
//
// This is exactly the consistent-hashing assignment rule used by Chord
// (with "counterclockwise from the site" corresponding to "the key's
// clockwise successor"), so the Space doubles as the load-balance model
// for DHTs discussed in Section 1.1 of the paper.
//
// # Fast-path architecture
//
// Locate is the placement hot path (every ball pays d of them), so the
// Space's primary storage is the internal/jump form: the sorted site
// positions as raw IEEE bit patterns plus a one-bucket-per-site jump
// index, giving O(1) expected, branch-predictable lookups in place of
// the seed's O(log n) binary search. Reseed redraws the sites of an
// existing Space in place with an O(n) counting sort keyed by the same
// buckets (the index falls out of the counting pass for free), so a
// simulation trial reuses one Space and its buffers instead of paying
// an allocation plus an O(n log n) comparison sort per trial; it
// consumes exactly the variates NewRandom would, so reused and freshly
// built spaces are bit-identical. Derived views (float positions, arc
// lengths, the descending arc cache for the Lemma 6 experiments) are
// materialized lazily and invalidated by Reseed. Together with core's
// devirtualized PlaceBatch this takes the Table 1 trial at n = 2^16
// from ~430 ns/ball (seed) to ~35 ns/ball.
//
// A Space is safe for concurrent readers only after its lazy views have
// been materialized; like rng.Rand and core.Allocator, it is not safe
// for concurrent use in general. Use one Space per goroutine.
package ring

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"geobalance/internal/jump"
	"geobalance/internal/rng"
)

// Space is a fixed set of server sites on the unit ring. It implements
// the core.Space contract for point type float64.
//
// Bin j is the arc [site_j, site_{j+1 mod n}) in counterclockwise order,
// so bin j's weight is the counterclockwise arc length from site j.
type Space struct {
	n       int
	bits    []uint64 // sorted site positions as IEEE bits; len n+1, jump.Inf64 sentinel at n
	idx     []int32  // bucket index over bits; len n+1, idx[n] = n
	delta   []int16  // compact index (jump.BuildDelta); valid iff compact
	compact bool

	sites   []float64 // lazy float view of bits
	sitesOK bool

	arcs   []float64 // arcs[j] = CCW arc length owned by site j; lazy
	arcsOK bool

	sorted   []float64 // arcs sorted descending, for Lemma 6 experiments; lazy
	sortedOK bool

	raw    []uint64 // Reseed scratch: unsorted draws
	cnt    []uint16 // Reseed scratch: per-bucket counts (half the cache footprint of int32)
	cursor []int32  // Reseed scratch: per-bucket scatter cursors
}

// newEmpty allocates a Space with capacity for n sites and no data.
func newEmpty(n int) *Space {
	return &Space{
		n:     n,
		bits:  make([]uint64, n+1),
		idx:   make([]int32, n+1),
		delta: make([]int16, n),
	}
}

// NewRandom places n sites independently and uniformly at random on the
// ring, as in the paper's model. It returns an error if n < 1.
func NewRandom(n int, r *rng.Rand) (*Space, error) {
	if n < 1 {
		return nil, fmt.Errorf("ring: need at least 1 site, got %d", n)
	}
	s := newEmpty(n)
	s.Reseed(r)
	return s, nil
}

// FromSites builds a Space from explicit site positions. Positions are
// copied, reduced mod 1, and sorted. Duplicate positions are allowed
// (the duplicate owns an empty arc), matching the continuous model where
// ties occur with probability zero but must not crash.
func FromSites(positions []float64) (*Space, error) {
	if len(positions) == 0 {
		return nil, errors.New("ring: no sites")
	}
	n := len(positions)
	s := newEmpty(n)
	s.sites = make([]float64, n)
	for i, p := range positions {
		s.sites[i] = frac(p)
	}
	sort.Float64s(s.sites)
	s.sitesOK = true
	for i, x := range s.sites {
		s.bits[i] = math.Float64bits(x)
	}
	s.bits[n] = jump.Inf64
	jump.BuildIdx(s.bits, s.idx)
	s.compact = jump.BuildDelta(s.idx, s.delta)
	return s, nil
}

// Reseed redraws all sites independently and uniformly at random,
// reusing the Space's buffers. It consumes exactly the same n Float64
// variates NewRandom would, so for a given generator state the
// resulting Space is bit-identical to a freshly constructed one —
// trials that reuse a Space via Reseed reproduce the site sets of
// trials that rebuild it. The sort is an O(n) counting sort keyed by
// jump bucket (the draws are uniform, so expected bucket occupancy is
// 1), and the prefix sums of the counting pass are exactly the jump
// index.
func (s *Space) Reseed(r *rng.Rand) {
	n := s.n
	if cap(s.raw) < n {
		s.raw = make([]uint64, n)
		s.cnt = make([]uint16, n+1)
		s.cursor = make([]int32, n)
	}
	raw := s.raw[:n]
	cnt := s.cnt[:n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	nbf := float64(n)
	for i := range raw {
		x := r.Float64()
		c := int(x * nbf)
		if c >= n {
			c = n - 1
		}
		cnt[c+1]++
		raw[i] = math.Float64bits(x)
	}
	// Prefix sums turn counts into exactly the bucket index: counts[b]
	// becomes the number of sites in buckets < b, i.e. the first site
	// index at or past bucket b.
	counts := s.idx[:n+1]
	counts[0] = 0
	acc := int32(0)
	for b := 1; b <= n; b++ {
		acc += int32(cnt[b])
		counts[b] = acc
	}
	if int(acc) != n {
		// A bucket's uint16 count wrapped — possible only for absurdly
		// non-uniform draws (> 2^16-1 of n sites in one bucket). Recount
		// at full width into the index itself.
		for i := range counts {
			counts[i] = 0
		}
		for _, xb := range raw {
			c := int(math.Float64frombits(xb) * nbf)
			if c >= n {
				c = n - 1
			}
			counts[c+1]++
		}
		acc = 0
		for b := 1; b <= n; b++ {
			acc += counts[b]
			counts[b] = acc
		}
	}
	cursor := s.cursor[:n]
	copy(cursor, counts[:n])
	bits := s.bits
	for _, xb := range raw {
		c := int(math.Float64frombits(xb) * nbf)
		if c >= n {
			c = n - 1
		}
		p := cursor[c]
		cursor[c] = p + 1
		bits[p] = xb
	}
	// Sites are now grouped by bucket but unordered within each bucket;
	// one sequential insertion pass finishes the sort (bit order equals
	// value order for non-negative floats). Displacements never cross a
	// bucket boundary, so the expected total work is O(n) — and the
	// sequential sweep beats sorting at scatter time, which would add a
	// dependent random load per draw. (Measured: the fused variant ran
	// ~1.6x slower.)
	for i := 1; i < n; i++ {
		x := bits[i]
		if x >= bits[i-1] {
			continue
		}
		j := i - 1
		for j >= 0 && bits[j] > x {
			bits[j+1] = bits[j]
			j--
		}
		bits[j+1] = x
	}
	bits[n] = jump.Inf64
	s.compact = jump.BuildDelta(s.idx, s.delta)
	s.sitesOK = false
	s.arcsOK = false
	s.sortedOK = false
}

// ensureSites materializes the float view of the site positions.
func (s *Space) ensureSites() {
	if s.sitesOK {
		return
	}
	if cap(s.sites) < s.n {
		s.sites = make([]float64, s.n)
	}
	s.sites = s.sites[:s.n]
	for i := range s.sites {
		s.sites[i] = math.Float64frombits(s.bits[i])
	}
	s.sitesOK = true
}

// ensureArcs materializes the per-bin arc lengths.
func (s *Space) ensureArcs() {
	if s.arcsOK {
		return
	}
	n := s.n
	if cap(s.arcs) < n {
		s.arcs = make([]float64, n)
	}
	s.arcs = s.arcs[:n]
	first := math.Float64frombits(s.bits[0])
	for j := 0; j < n-1; j++ {
		s.arcs[j] = math.Float64frombits(s.bits[j+1]) - math.Float64frombits(s.bits[j])
	}
	s.arcs[n-1] = 1 - math.Float64frombits(s.bits[n-1]) + first
	if n == 1 {
		s.arcs[0] = 1
	}
	s.arcsOK = true
}

// ensureSorted materializes the descending-sorted arc cache.
func (s *Space) ensureSorted() {
	if s.sortedOK {
		return
	}
	s.ensureArcs()
	if cap(s.sorted) < len(s.arcs) {
		s.sorted = make([]float64, len(s.arcs))
	}
	s.sorted = s.sorted[:len(s.arcs)]
	copy(s.sorted, s.arcs)
	sort.Sort(sort.Reverse(sort.Float64Slice(s.sorted)))
	s.sortedOK = true
}

func frac(x float64) float64 {
	f := x - float64(int(x))
	if f < 0 {
		f++
	}
	if f >= 1 {
		f = 0
	}
	return f
}

// NumBins returns the number of sites (bins).
func (s *Space) NumBins() int { return s.n }

// Dim returns the dimension of the space — 1 on the ring. It exists for
// interface symmetry with torus.Space, so bulk callers can size flat
// point buffers as queries*Dim() for either geometry.
func (s *Space) Dim() int { return 1 }

// NearestBatch resolves len(out) lookups in one call: out[i] receives
// the bin owning location pts[i] (each in [0, 1), as Sample draws
// them). It mirrors torus.Space's bulk-nearest API; on the ring the
// lookups are resolved through the jump index back to back, which lets
// the independent table loads overlap. Unlike most ring methods it is
// safe for concurrent use on an unchanging Space — it reads only the
// immutable index.
func (s *Space) NearestBatch(pts []float64, out []int32) {
	if len(pts) != len(out) {
		panic(fmt.Sprintf("ring: NearestBatch with %d locations for %d outputs", len(pts), len(out)))
	}
	if s.compact {
		jump.LocateBlock(s.bits, s.delta, pts, out)
		return
	}
	nbf := float64(s.n)
	for i, u := range pts {
		out[i] = int32(jump.LocateIdx(s.bits, s.idx, nbf, u))
	}
}

// Sample draws a location uniformly at random on the ring.
func (s *Space) Sample(r *rng.Rand) float64 { return r.Float64() }

// Locate returns the bin owning location u: the greatest site <= u,
// wrapping to the last site when u precedes all sites. A location
// coinciding with a site is owned by that site (the highest-index one,
// if duplicated — the site whose arc starts there).
func (s *Space) Locate(u float64) int { return s.locateUnit(frac(u)) }

// locateUnit is Locate for u already in [0, 1).
func (s *Space) locateUnit(u float64) int {
	if s.compact {
		return jump.Locate(s.bits, s.delta, float64(s.n), u)
	}
	return jump.LocateIdx(s.bits, s.idx, float64(s.n), u)
}

// Weight returns the arc length owned by bin j. Weights sum to 1.
func (s *Space) Weight(j int) float64 {
	s.ensureArcs()
	return s.arcs[j]
}

// Site returns the position of site j.
func (s *Space) Site(j int) float64 {
	if j < 0 || j >= s.n {
		panic(fmt.Sprintf("ring: Site(%d) with %d sites", j, s.n))
	}
	return math.Float64frombits(s.bits[j])
}

// Sites returns the sorted site positions. The returned slice is shared;
// callers must not modify it.
func (s *Space) Sites() []float64 {
	s.ensureSites()
	return s.sites
}

// SiteBits returns the sorted site positions as raw IEEE bit patterns,
// with the jump.Inf64 sentinel at index n — the jump-index form core's
// devirtualized placement loop resolves locations against. The returned
// slice is shared; callers must not modify it.
func (s *Space) SiteBits() []uint64 { return s.bits }

// Buckets returns the jump index over the sorted sites: len(n)+1
// entries where entry b is the index of the first site at or past
// bucket b of n uniform buckets, with a final sentinel of n. The
// returned slice is shared; callers must not modify it.
func (s *Space) Buckets() []int32 { return s.idx }

// BucketDeltas returns the compact int16 jump index (see
// jump.BuildDelta), or nil if some delta overflows an int16 — callers
// then fall back to Buckets. The returned slice is shared; callers must
// not modify it.
func (s *Space) BucketDeltas() []int16 {
	if !s.compact {
		return nil
	}
	return s.delta
}

// ArcLengths returns the per-bin arc lengths. The returned slice is
// shared; callers must not modify it.
func (s *Space) ArcLengths() []float64 {
	s.ensureArcs()
	return s.arcs
}

// SortedArcsDesc returns a copy of the arc lengths sorted in decreasing
// order, for the Lemma 6 experiments on the longest arcs. The
// descending order is cached, so repeated calls cost O(n) copies, not
// O(n log n) sorts.
func (s *Space) SortedArcsDesc() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.sorted))
	copy(out, s.sorted)
	return out
}

// CountArcsAtLeast returns the number of arcs with length >= x
// (the quantity N_c of Lemmas 4 and 5 with x = c/n).
func (s *Space) CountArcsAtLeast(x float64) int {
	s.ensureArcs()
	count := 0
	for _, a := range s.arcs {
		if a >= x {
			count++
		}
	}
	return count
}

// TopArcSum returns the total length of the a longest arcs
// (the quantity bounded by Lemma 6). It panics if a is out of range.
func (s *Space) TopArcSum(a int) float64 {
	if a < 0 || a > s.n {
		panic(fmt.Sprintf("ring: TopArcSum(%d) with %d arcs", a, s.n))
	}
	s.ensureSorted()
	var sum float64
	for _, v := range s.sorted[:a] {
		sum += v
	}
	return sum
}

// ChooseBin draws a uniform location on the ring and returns its bin.
// It implements core.Space.
func (s *Space) ChooseBin(r *rng.Rand) int { return s.locateUnit(r.Float64()) }

// ChooseBinIn draws a location uniformly from the kth of d equal strata
// [k/d, (k+1)/d) of the ring and returns its bin. This is the stratified
// choice generation of Vöcking's go-left variant as described in the
// paper's remark after Theorem 1. It implements core.StratifiedSpace.
func (s *Space) ChooseBinIn(r *rng.Rand, k, d int) int {
	if d < 1 || k < 0 || k >= d {
		panic(fmt.Sprintf("ring: ChooseBinIn stratum %d of %d", k, d))
	}
	u := (float64(k) + r.Float64()) / float64(d)
	if u >= 1 { // (k+F)/d can round up to 1 when F is within an ulp of 1
		u = 0
	}
	return s.locateUnit(u)
}

// MaxArc returns the length of the longest arc.
func (s *Space) MaxArc() float64 {
	s.ensureArcs()
	var m float64
	for _, a := range s.arcs {
		if a > m {
			m = a
		}
	}
	return m
}
