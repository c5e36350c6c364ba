package torus

import (
	"encoding/binary"
	"testing"

	"geobalance/internal/geom"
)

// FuzzNearest cross-checks the grid kernels — Nearest, NearestShared,
// and the cell-sorted NearestBatch — against NearestBrute on fuzzed
// site layouts and queries in dimensions 1 through 6. The byte stream
// encodes the dimension, then site and query coordinates as uint16
// fixed-point fractions, which lets the fuzzer hit duplicate
// coordinates, exact cell boundaries, and tiny or degenerate grids
// directly. Comparison follows the kernel contract: distances must
// agree exactly, and so must the winning indices, since NearestBrute
// and every kernel keep the lowest public index on an exact tie.
func FuzzNearest(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 255, 255, 0, 0, 128, 0, 0, 128, 7, 7, 7, 7, 9, 9, 200, 1, 3, 3})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170})
	// Seeds big enough that gridFor picks g >= 5: the dim-3 staged
	// nine-column-run scan needs ~46+ sites, and the dim-4 seed's 256
	// sites put the walk on a 5^4 grid. Coordinates come from a fixed
	// LCG so the corpus is deterministic.
	for _, c := range []struct {
		tag byte // data[0]; dim = tag%6 + 1
		nb  int  // coordinate bytes
	}{{2, 72*3*2 + 4*3*2}, {3, 256*4*2 + 4*4*2}} {
		data := make([]byte, 1, 1+c.nb)
		data[0] = c.tag
		s := uint32(0x9e3779b9)
		for i := 0; i < c.nb; i++ {
			s = s*1664525 + 1013904223
			data = append(data, byte(s>>24))
		}
		f.Add(data)
	}
	// A dim-1 tie across cells: 256 sites put the grid at 256 cells of
	// 256 units, and the one query, at the middle of cell 100, is
	// exactly 256 units from site 0 (cell 101) and site 1 (cell 99).
	// The walk scans cell 99 first, so only the lowest-index rule
	// returns site 0. The other sites sit past coordinate 40000.
	tie := []byte{0}
	for _, c := range []int{100*256 + 128 + 256, 100*256 + 128 - 256} {
		tie = binary.LittleEndian.AppendUint16(tie, uint16(c))
	}
	for i := range 254 {
		tie = binary.LittleEndian.AppendUint16(tie, uint16(40000+100*i))
	}
	f.Add(binary.LittleEndian.AppendUint16(tie, 100*256+128))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := int(data[0])%6 + 1
		data = data[1:]
		// Decode uint16 fixed-point coordinates in [0, 1).
		nc := len(data) / 2
		coords := make([]float64, nc)
		for i := range coords {
			coords[i] = float64(binary.LittleEndian.Uint16(data[2*i:])) / (1 << 16)
		}
		n := nc / dim
		if n < 1 {
			return
		}
		if n > 256 {
			n = 256 // keep the brute-force oracle cheap
		}
		sites := make([]geom.Vec, n)
		for i := range sites {
			sites[i] = geom.Vec(coords[i*dim : (i+1)*dim])
		}
		sp, err := FromSites(sites, dim)
		if err != nil {
			t.Fatalf("FromSites rejected decoded coordinates: %v", err)
		}
		// Queries: every site position (exact hits and duplicates), plus
		// the remaining decoded coordinates read as query points.
		var queries []float64
		queries = append(queries, coords[:n*dim]...)
		rest := coords[n*dim:]
		queries = append(queries, rest[:len(rest)/dim*dim]...)
		nq := len(queries) / dim
		if nq == 0 {
			return
		}
		batch := make([]int32, nq)
		sp.NearestBatch(queries, batch)
		for qi := 0; qi < nq; qi++ {
			p := geom.Vec(queries[qi*dim : (qi+1)*dim])
			bi, bd := sp.NearestBrute(p)
			gi, gd := sp.Nearest(p)
			if gd != bd {
				t.Fatalf("dim %d n %d query %v: Nearest (%d, %v) vs brute (%d, %v)",
					dim, n, p, gi, gd, bi, bd)
			}
			if gi != bi {
				t.Fatalf("dim %d query %v: winner %d differs from brute %d at distance %v",
					dim, p, gi, bi, bd)
			}
			si, sd := sp.NearestShared(p)
			if si != gi || sd != gd {
				t.Fatalf("dim %d query %v: NearestShared (%d, %v) vs Nearest (%d, %v)",
					dim, p, si, sd, gi, gd)
			}
			if batch[qi] != int32(gi) {
				t.Fatalf("dim %d query %v: NearestBatch %d vs Nearest %d",
					dim, p, batch[qi], gi)
			}
		}
	})
}
