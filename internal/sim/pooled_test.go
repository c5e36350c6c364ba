package sim

import (
	"testing"

	"geobalance/internal/core"
	"geobalance/internal/rng"
	"geobalance/internal/torus"
)

// TestPooledMatchesAllocating: the pooled trial families must report
// exactly the histograms of their allocating counterparts — Reseed and
// Reset reproduce fresh construction bit for bit — independent of the
// worker count (per-trial seeding makes scheduling irrelevant).
func TestPooledMatchesAllocating(t *testing.T) {
	const trials, seed = 60, 443
	cases := []struct {
		name   string
		plain  TrialFunc
		pooled TrialFactory
	}{
		{"ring-d2", RingTrial(1<<10, 1<<10, 2, core.TieRandom, false),
			RingTrialPooled(1<<10, 1<<10, 2, core.TieRandom, false)},
		{"ring-d3-left", RingTrial(1<<10, 1<<10, 3, core.TieLeft, true),
			RingTrialPooled(1<<10, 1<<10, 3, core.TieLeft, true)},
		{"torus-d2", TorusTrial(256, 256, 2, 2, core.TieRandom),
			TorusTrialPooled(256, 256, 2, 2, core.TieRandom)},
		// d=3 TieRandom exercises core's devirtualized torus bulk path
		// (interleaved tie draws), dim=3 the three-dimensional kernel.
		{"torus-d3", TorusTrial(256, 256, 3, 2, core.TieRandom),
			TorusTrialPooled(256, 256, 3, 2, core.TieRandom)},
		{"torus-dim3-d2", TorusTrial(216, 216, 2, 3, core.TieRandom),
			TorusTrialPooled(216, 216, 2, 3, core.TieRandom)},
		{"uniform-d2", UniformTrial(1<<10, 1<<10, 2, core.TieRandom, false),
			UniformTrialPooled(1<<10, 1<<10, 2, core.TieRandom, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(trials, seed, 4, tc.plain)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := RunFactory(trials, seed, workers, tc.pooled)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Values()) != len(want.Values()) {
					t.Fatalf("workers=%d: %d distinct values, want %d", workers, len(got.Values()), len(want.Values()))
				}
				for _, v := range want.Values() {
					if got.Count(v) != want.Count(v) {
						t.Fatalf("workers=%d: count(%d) = %d, want %d", workers, v, got.Count(v), want.Count(v))
					}
				}
			}
		})
	}
}

// TestPooledTrialZeroAllocs guards the allocation-free steady state of
// the pooled trial loop as RunFactory drives it — one long-lived space,
// allocator, and generator per worker, re-seeded in place per trial.
// This is the loop cmd/benchjson's *_trial_reused records gate exactly
// (a zero-alloc baseline fails CI on ANY allocation), so a regression
// here fails fast without a benchmark run.
func TestPooledTrialZeroAllocs(t *testing.T) {
	const n = 1 << 11
	cases := []struct {
		name string
		mk   TrialFactory
	}{
		{"ring-d2", RingTrialPooled(n, n, 2, core.TieRandom, false)},
		{"torus-dim2-d2", TorusTrialPooled(n, n, 2, 2, core.TieRandom)},
		{"torus-dim3-d2", TorusTrialPooled(n, n, 2, 3, core.TieRandom)},
		{"uniform-d2", UniformTrialPooled(n, n, 2, core.TieRandom, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trial := tc.mk()
			var r rng.Rand
			r.SeedStream(991, 0)
			if _, err := trial(&r); err != nil { // builds the pooled state
				t.Fatal(err)
			}
			stream := uint64(1)
			if allocs := testing.AllocsPerRun(5, func() {
				r.SeedStream(991, stream)
				stream++
				if _, err := trial(&r); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("pooled trial allocated %v times per run", allocs)
			}
		})
	}
}

// scalarTorusTrial is TorusTrial with every ball placed by
// Allocator.Place, whose candidates resolve through torus Nearest one
// at a time rather than through the NearestBatch kernels of PlaceN.
func scalarTorusTrial(n, m, d, dim int) TrialFunc {
	return func(r *rng.Rand) (int, error) {
		sp, err := torus.NewRandom(n, dim, r)
		if err != nil {
			return 0, err
		}
		a, err := core.New(sp, core.Config{D: d})
		if err != nil {
			return 0, err
		}
		for range m {
			a.Place(r)
		}
		return a.MaxLoad(), nil
	}
}

// TestTorusTrialsMatchScalarPlace: TorusTrial and TorusTrialPooled share
// the batch kernels, so comparing them cannot see a kernel fault; a
// trial that places the same balls through the scalar kernel can. Each
// seed's max load must agree all three ways, in dims 2 and 3.
func TestTorusTrialsMatchScalarPlace(t *testing.T) {
	const n, seeds = 1 << 12, 4
	for _, dim := range []int{2, 3} {
		trials := []TrialFunc{
			TorusTrial(n, n, 2, dim, core.TieRandom),
			TorusTrialPooled(n, n, 2, dim, core.TieRandom)(), // Reseeds after its first trial
			scalarTorusTrial(n, n, 2, dim),
		}
		for seed := range uint64(seeds) {
			var got [3]int
			for k, trial := range trials {
				var r rng.Rand
				r.SeedStream(seed, 0)
				v, err := trial(&r)
				if err != nil {
					t.Fatal(err)
				}
				got[k] = v
			}
			if got[0] != got[2] || got[1] != got[2] {
				t.Errorf("dim %d seed %d: max load %d (TorusTrial), %d (pooled), %d (scalar Place)",
					dim, seed, got[0], got[1], got[2])
			}
		}
	}
}
