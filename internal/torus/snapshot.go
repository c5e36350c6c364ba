// Immutable-snapshot construction: building a new Space from a prior
// one with a single site added or removed, without mutating the prior
// Space and without re-running the full counting sort Reseed performs.
//
// This is the membership path behind router.Geo: the serving layer
// publishes each Space as an immutable topology snapshot, so a
// membership change must produce a NEW index that shares no mutable
// state with the one concurrent readers are still querying. Because
// one site touches one cell, the CSR structure of the prior index is
// almost entirely reusable: the new perm/soa arrays are three memcpy
// segments around one spliced slot, the bucket boundaries shift by one
// past the touched cell, and the per-site cell cache carries over —
// no per-site cell recomputation, no counting sort. The CSR arrays
// are the only site layout the query kernels read, scalar and batch
// alike, so the splice is the whole index.
//
// The resulting Space is structurally identical to one built from
// scratch over the same site list (test-pinned), including the grid
// resolution: when the default resolution for the new site count
// differs from the inherited one, the construction transparently falls
// back to a full build at the new resolution. Installed weights are
// not carried over (they describe the old cell set).
package torus

import (
	"fmt"
	"math"

	"geobalance/internal/geom"
)

// cloneSites returns a deep copy of the site list with site i removed
// (skip >= 0) or with p appended (skip < 0, p non-nil), backed by one
// flat allocation like NewRandom's.
func (s *Space) cloneSites(skip int, p geom.Vec) []geom.Vec {
	n := len(s.sites)
	dim := s.dim
	m := n + 1
	if skip >= 0 {
		m = n - 1
	}
	flat := make([]float64, m*dim)
	out := make([]geom.Vec, m)
	w := 0
	for i, site := range s.sites {
		if i == skip {
			continue
		}
		v := flat[w*dim : (w+1)*dim : (w+1)*dim]
		copy(v, site)
		out[w] = v
		w++
	}
	if skip < 0 {
		v := flat[w*dim : (w+1)*dim : (w+1)*dim]
		copy(v, p)
		out[w] = v
	}
	return out
}

// newSnapshot assembles the shared skeleton of a spliced Space: fresh
// scratch, inherited resolution, and freshly built wrap tables (cheap,
// and owning them keeps a later Reseed on the snapshot from writing
// into arrays the parent's readers still use).
func (s *Space) newSnapshot(sites []geom.Vec) *Space {
	nt := &Space{
		dim:       s.dim,
		sites:     sites,
		g:         s.g,
		cellWidth: s.cellWidth,
		qbuf:      make(geom.Vec, s.dim),
		home:      make([]int, s.dim),
		offs:      make([]int, s.dim),
	}
	nt.buildWrapTables()
	return nt
}

// WithSite returns a new Space equal to s with one site appended at p
// (its public index is s.NumBins()), leaving s untouched: the two
// Spaces share no mutable state, so readers of s may keep querying it
// while — and after — the new Space is built. p must have dimension
// Dim() with coordinates in [0, 1). Weights are not carried over.
func (s *Space) WithSite(p geom.Vec) (*Space, error) {
	dim := s.dim
	if len(p) != dim {
		return nil, fmt.Errorf("torus: new site has dimension %d, want %d", len(p), dim)
	}
	for j, c := range p {
		if c < 0 || c >= 1 || math.IsNaN(c) {
			return nil, fmt.Errorf("torus: new site coordinate %d = %v outside [0,1)", j, c)
		}
	}
	n := len(s.sites)
	sites := s.cloneSites(-1, p)
	if gridFor(n+1, dim) != s.g {
		// The default resolution moved: splice reuse would drift from a
		// from-scratch build, so rebuild at the new resolution instead.
		return FromSites(sites, dim)
	}
	nt := s.newSnapshot(sites)
	c := s.cellIndex(p)
	nc := pow(s.g, dim)
	ins := int(s.start[c+1]) // end of cell c's run: the new site has the largest public index

	start := make([]int32, nc+1)
	for j := 0; j <= nc; j++ {
		b := s.start[j]
		if j > c {
			b++
		}
		start[j] = b
	}
	perm := make([]int32, n+1)
	copy(perm, s.perm[:ins])
	perm[ins] = int32(n)
	copy(perm[ins+1:], s.perm[ins:])
	soa := make([]float64, (n+1)*dim)
	copy(soa, s.soa[:ins*dim])
	copy(soa[ins*dim:(ins+1)*dim], p)
	copy(soa[(ins+1)*dim:], s.soa[ins*dim:])
	slotOf := make([]int32, n+1)
	for k, i := range perm {
		slotOf[i] = int32(k)
	}
	cellOf := make([]int32, n+1)
	copy(cellOf, s.cellOf[:n])
	cellOf[n] = int32(c)

	nt.start, nt.perm, nt.slotOf, nt.soa, nt.cellOf = start, perm, slotOf, soa, cellOf
	return nt, nil
}

// WithoutSite returns a new Space equal to s with site i removed —
// public indices above i shift down by one — leaving s untouched (see
// WithSite). Removing the last site is an error. Weights are not
// carried over.
func (s *Space) WithoutSite(i int) (*Space, error) {
	n := len(s.sites)
	dim := s.dim
	if i < 0 || i >= n {
		return nil, fmt.Errorf("torus: removing site %d of %d", i, n)
	}
	if n == 1 {
		return nil, fmt.Errorf("torus: cannot remove the last site")
	}
	sites := s.cloneSites(i, nil)
	if gridFor(n-1, dim) != s.g {
		return FromSites(sites, dim)
	}
	nt := s.newSnapshot(sites)
	c := int(s.cellOf[i])
	k := int(s.slotOf[i])
	nc := pow(s.g, dim)

	start := make([]int32, nc+1)
	for j := 0; j <= nc; j++ {
		b := s.start[j]
		if j > c {
			b--
		}
		start[j] = b
	}
	perm := make([]int32, n-1)
	w := 0
	for _, pi := range s.perm[:n] {
		if int(pi) == i {
			continue
		}
		if int(pi) > i {
			pi--
		}
		perm[w] = pi
		w++
	}
	soa := make([]float64, (n-1)*dim)
	copy(soa, s.soa[:k*dim])
	copy(soa[k*dim:], s.soa[(k+1)*dim:n*dim])
	slotOf := make([]int32, n-1)
	for slot, pi := range perm {
		slotOf[pi] = int32(slot)
	}
	cellOf := make([]int32, n-1)
	copy(cellOf, s.cellOf[:i])
	copy(cellOf[i:], s.cellOf[i+1:n])

	nt.start, nt.perm, nt.slotOf, nt.soa, nt.cellOf = start, perm, slotOf, soa, cellOf
	return nt, nil
}

// CheckIndex verifies the structural invariants of the grid index —
// CSR bucket boundaries, the perm/slotOf bijection, the cell-ordered
// SoA mirror, the per-site cell cache and the wrap tables — against
// the public site list. It is the oracle behind the incremental-snapshot
// tests and router.Geo's topology checks; it allocates and is not for
// hot paths.
func (s *Space) CheckIndex() error {
	n := len(s.sites)
	dim := s.dim
	g := s.g
	nc := pow(g, dim)
	if n == 0 || g < 1 {
		return fmt.Errorf("torus: empty index (%d sites, g=%d)", n, g)
	}
	if s.cellWidth != 1/float64(g) {
		return fmt.Errorf("torus: cellWidth %v != 1/%d", s.cellWidth, g)
	}
	if len(s.perm) != n || len(s.slotOf) != n || len(s.soa) != n*dim || len(s.cellOf) < n {
		return fmt.Errorf("torus: index tables sized %d/%d/%d/%d for %d sites",
			len(s.perm), len(s.slotOf), len(s.soa), len(s.cellOf), n)
	}
	if len(s.start) < nc+1 || s.start[0] != 0 || s.start[nc] != int32(n) {
		return fmt.Errorf("torus: bucket boundaries malformed")
	}
	for c := 0; c < nc; c++ {
		if s.start[c] > s.start[c+1] {
			return fmt.Errorf("torus: bucket %d boundaries inverted", c)
		}
	}
	seen := make([]bool, n)
	for c := 0; c < nc; c++ {
		prev := int32(-1)
		for k := s.start[c]; k < s.start[c+1]; k++ {
			i := s.perm[k]
			if i < 0 || int(i) >= n || seen[i] {
				return fmt.Errorf("torus: slot %d holds invalid or duplicate site %d", k, i)
			}
			seen[i] = true
			if s.slotOf[i] != k {
				return fmt.Errorf("torus: slotOf[%d] = %d, perm says %d", i, s.slotOf[i], k)
			}
			if i <= prev {
				return fmt.Errorf("torus: cell %d not in public-index order", c)
			}
			prev = i
			if int(s.cellOf[i]) != c {
				return fmt.Errorf("torus: cellOf[%d] = %d, stored in cell %d", i, s.cellOf[i], c)
			}
			if got := s.cellIndex(s.sites[i]); got != c {
				return fmt.Errorf("torus: site %d hashes to cell %d, stored in %d", i, got, c)
			}
			for j := 0; j < dim; j++ {
				if s.soa[int(k)*dim+j] != s.sites[i][j] {
					return fmt.Errorf("torus: soa mirror of site %d axis %d diverges", i, j)
				}
			}
		}
	}
	if len(s.wrap) != 3*g {
		return fmt.Errorf("torus: wrap table sized %d, want %d", len(s.wrap), 3*g)
	}
	for j, w := range s.wrap {
		if w != int32(j%g) {
			return fmt.Errorf("torus: wrap[%d] = %d", j, w)
		}
	}
	return nil
}
