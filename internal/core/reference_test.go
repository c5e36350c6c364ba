package core

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/ring"
	"geobalance/internal/rng"
	"geobalance/internal/stats"
	"geobalance/internal/torus"
)

// refModel is an independent reference for the sequential d-choice
// process: plain loads, the candidates drawn through the Space
// interface one ball at a time, and its own copy of the selection rule
// with an inline tie switch. It shares no code with pick, the block
// pipeline or the pair commit, so agreement with it pins all three.
type refModel struct {
	space  Space
	cfg    Config
	loads  []int32
	capInv []float64
	balls  []int32
}

func newRefModel(space Space, cfg Config, caps []float64) *refModel {
	if cfg.Tie == TieLeft {
		cfg.Stratified = true
	}
	ref := &refModel{space: space, cfg: cfg, loads: make([]int32, space.NumBins())}
	if caps != nil {
		ref.capInv = make([]float64, len(caps))
		for i, c := range caps {
			ref.capInv[i] = 1 / c
		}
	}
	return ref
}

func (ref *refModel) relLoad(bin int) float64 {
	if ref.capInv == nil {
		return float64(ref.loads[bin])
	}
	return float64(ref.loads[bin]) * ref.capInv[bin]
}

// refPlace places one ball. Under TieRandom it draws one tie variate per
// candidate after the first, right after that candidate's location,
// whether or not a tie occurred: the tie-variate contract.
func (ref *refModel) refPlace(r *rng.Rand) int {
	d := ref.cfg.D
	tieRand := ref.cfg.Tie == TieRandom
	choose := func(k int) int {
		if ref.cfg.Stratified {
			return ref.space.(StratifiedSpace).ChooseBinIn(r, k, d)
		}
		return ref.space.ChooseBin(r)
	}
	best := choose(0)
	bestRel := ref.relLoad(best)
	ties := 1
	for k := 1; k < d; k++ {
		c := choose(k)
		var u uint64
		if tieRand {
			u = r.Uint64()
		}
		if c == best {
			continue
		}
		rel := ref.relLoad(c)
		switch {
		case rel < bestRel:
			best, bestRel, ties = c, rel, 1
		case rel == bestRel:
			switch ref.cfg.Tie {
			case TieRandom:
				ties++
				if hi, _ := bits.Mul64(u, uint64(ties)); hi == 0 {
					best = c
				}
			case TieSmaller:
				if ref.space.Weight(c) < ref.space.Weight(best) {
					best = c
				}
			case TieLarger:
				if ref.space.Weight(c) > ref.space.Weight(best) {
					best = c
				}
			case TieLeft:
				// Keep the earlier stratum.
			}
		}
	}
	ref.loads[best]++
	ref.balls = append(ref.balls, int32(best))
	return best
}

// bruteSpace is a torus whose ChooseBin and ChooseBinIn draw the same
// variates torus.Space's do but resolve them with NearestBrute, so no
// grid kernel stands between the reference and the geometry. It is not
// a *torus.Space, so PlaceBatch draws it through the Space interface.
type bruteSpace struct{ *torus.Space }

func (b bruteSpace) ChooseBin(r *rng.Rand) int {
	p := make(geom.Vec, b.Dim())
	b.SampleInto(p, r)
	bin, _ := b.NearestBrute(p)
	return bin
}

func (b bruteSpace) ChooseBinIn(r *rng.Rand, k, d int) int {
	p := make(geom.Vec, b.Dim())
	p[0] = (float64(k) + r.Float64()) / float64(d)
	for j := 1; j < len(p); j++ {
		p[j] = r.Float64()
	}
	bin, _ := b.NearestBrute(p)
	return bin
}

// placementKinds are FuzzPlacement's spaces, indexed by kind % 10.
var placementKinds = []string{
	"ring", "torus1", "torus2", "torus3", "torus4",
	"brute1", "brute2", "brute3", "brute4", "uniform",
}

// FuzzPlacement checks every placement entry point against refModel:
// Place, PlaceBatch, PlaceBatchParallel and PlaceNBatched(m, 1), each
// from the same seed, must match the reference's loads, maximum (and
// the count of bins at it), ball count and ball order (under
// TrackBalls), and leave the generator at the same next variate. The
// inputs pick the space (ring, torus dims 1–4 with grid or brute
// resolution, uniform), n up to 256, d = 1–4, the tie rule,
// stratification, TrackBalls, random capacities, random torus weights
// from a few levels so weight ties occur, m across the 32- and
// 8192-ball block edges, and 1–3 workers.
//
// The seed corpus (testdata/fuzz/FuzzPlacement) names each entry after
// the configuration it pins.
func FuzzPlacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, d, tie, flags, workers uint8, n, m uint16, seed uint64) {
		checkPlacement(t, int(kind)%len(placementKinds), 1+int(d)%4, TieBreak(tie%4), flags,
			1+int(workers)%3, 1+int(n)%256, int(m)%8500, seed)
	})
}

// The bits of FuzzPlacement's flags input.
const (
	flagStratified = 1 << iota
	flagTrack
	flagCapacities
	flagWeights // torus only; forced on for the weight tie rules
)

func checkPlacement(t *testing.T, kind, d int, tie TieBreak, flags uint8, workers, n, m int, seed uint64) {
	t.Helper()
	gen := rng.New(seed)
	var space Space
	switch name := placementKinds[kind]; name {
	case "ring":
		sp, err := ring.NewRandom(n, gen)
		if err != nil {
			t.Fatal(err)
		}
		space = sp
	case "uniform":
		sp, err := NewUniform(n)
		if err != nil {
			t.Fatal(err)
		}
		space = sp
	default:
		dim := int(name[len(name)-1] - '0')
		sp, err := torus.NewRandom(n, dim, gen)
		if err != nil {
			t.Fatal(err)
		}
		if flags&flagWeights != 0 || tie == TieSmaller || tie == TieLarger {
			w := make([]float64, n)
			for i := range w {
				w[i] = float64(1+gen.Intn(4)) / float64(n)
			}
			if err := sp.SetWeights(w); err != nil {
				t.Fatal(err)
			}
		}
		space = sp
		if strings.HasPrefix(name, "brute") {
			space = bruteSpace{sp}
		}
	}
	var caps []float64
	if flags&flagCapacities != 0 {
		caps = make([]float64, n)
		for i := range caps {
			caps[i] = float64(1 + gen.Intn(3))
		}
	}
	cfg := Config{D: d, Tie: tie, Stratified: flags&flagStratified != 0, TrackBalls: flags&flagTrack != 0}

	ref := newRefModel(space, cfg, caps)
	rr := rng.New(seed + 1)
	for i := 0; i < m; i++ {
		ref.refPlace(rr)
	}
	want := rr.Uint64()
	refMax := int32(stats.MaxLoad(ref.loads))
	var refAtMax int32
	for _, l := range ref.loads {
		if l == refMax && l > 0 {
			refAtMax++
		}
	}

	paths := []struct {
		name string
		run  func(a *Allocator, r *rng.Rand)
	}{
		{"Place", func(a *Allocator, r *rng.Rand) {
			for i := 0; i < m; i++ {
				a.Place(r)
			}
		}},
		{"PlaceBatch", func(a *Allocator, r *rng.Rand) { a.PlaceBatch(m, r) }},
		{fmt.Sprintf("PlaceBatchParallel(%d)", workers), func(a *Allocator, r *rng.Rand) { a.PlaceBatchParallel(m, workers, r) }},
		{"PlaceNBatched(m, 1)", func(a *Allocator, r *rng.Rand) {
			if err := a.PlaceNBatched(m, 1, r); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range paths {
		a, err := New(space, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed + 1)
		p.run(a, r)
		where := fmt.Sprintf("%s on %s n=%d m=%d cfg=%+v caps=%v", p.name, placementKinds[kind], n, m, cfg, caps != nil)
		for i, l := range a.Loads() {
			if l != ref.loads[i] {
				t.Fatalf("%s: bin %d load %d, reference %d", where, i, l, ref.loads[i])
			}
		}
		if a.MaxLoad() != int(refMax) || a.atMax != refAtMax {
			t.Fatalf("%s: max %d (%d bins), reference %d (%d bins)", where, a.MaxLoad(), a.atMax, refMax, refAtMax)
		}
		if a.Placed() != m {
			t.Fatalf("%s: placed %d, want %d", where, a.Placed(), m)
		}
		if cfg.TrackBalls {
			if len(a.balls) != len(ref.balls) {
				t.Fatalf("%s: %d tracked balls, reference %d", where, len(a.balls), len(ref.balls))
			}
			for i, b := range a.balls {
				if b != ref.balls[i] {
					t.Fatalf("%s: ball %d in bin %d, reference %d", where, i, b, ref.balls[i])
				}
			}
		}
		if got := r.Uint64(); got != want {
			t.Fatalf("%s: next variate %#x, reference %#x", where, got, want)
		}
	}
}
