// Repository-level benchmark harness: one benchmark family per table and
// figure of the paper, plus ablations for the design choices called out
// in DESIGN.md. Each table-cell benchmark runs one full simulation trial
// per iteration and reports the mean observed maximum load as the custom
// metric "maxload" — so `go test -bench .` regenerates both the cost and
// the headline numbers of every experiment at laptop scale. Use the
// geobalance CLI for full paper-scale histograms.
package geobalance_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"geobalance/internal/balls"
	"geobalance/internal/chord"
	"geobalance/internal/core"
	"geobalance/internal/fluid"
	"geobalance/internal/hashring"
	"geobalance/internal/queueing"
	"geobalance/internal/ring"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/sim"
	"geobalance/internal/stats"
	"geobalance/internal/tailbound"
	"geobalance/internal/torus"
	"geobalance/internal/voronoi"
)

// benchNs are the site counts exercised by default. The paper sweeps to
// 2^24 (ring) and 2^20 (torus); with the allocation-free placement path
// the default sweep reaches 2^20 in-harness on the ring, and the
// cell-ordered torus kernels (~30 ns/ball at n=2^16, was ~490) bring
// the torus table to the same 2^20 ceiling. Cells are named so even
// larger runs can be selected with -bench filters.
var benchNs = []int{1 << 8, 1 << 12, 1 << 16, 1 << 20}

// --- Table 1: maximum load with random arcs (m = n) ---

func BenchmarkTable1Ring(b *testing.B) {
	for _, n := range benchNs {
		for _, d := range []int{1, 2, 3, 4} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				benchPooledTrial(b, n, sim.RingTrialPooled(n, n, d, core.TieRandom, false), 1)
			})
		}
	}
}

// benchPooledTrial runs one worker's pooled trial per iteration — the
// exact per-worker code path sim.RunFactory executes in production,
// including the in-place per-trial generator reseed — and reports the
// mean max load plus per-ball cost.
func benchPooledTrial(b *testing.B, n int, mk sim.TrialFactory, seed uint64) {
	b.ReportAllocs()
	trial := mk()
	var r rng.Rand
	var sum float64
	for i := 0; i < b.N; i++ {
		r.SeedStream(seed, uint64(i))
		v, err := trial(&r)
		if err != nil {
			b.Fatal(err)
		}
		sum += float64(v)
	}
	b.ReportMetric(sum/float64(b.N), "maxload")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/ball")
}

// --- Table 2: maximum load with random torus polygons (m = n) ---

func BenchmarkTable2Torus(b *testing.B) {
	for _, n := range benchNs {
		for _, d := range []int{1, 2, 3, 4} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				benchPooledTrial(b, n, sim.TorusTrialPooled(n, n, d, 2, core.TieRandom), 2)
			})
		}
	}
}

// BenchmarkTable2TorusDim3 extends Table 2 to the three-dimensional
// torus (Section 3's k-d generalization), exercising the dim=3 nearest
// kernel end to end through the pooled trial path.
func BenchmarkTable2TorusDim3(b *testing.B) {
	for _, n := range benchNs {
		for _, d := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				benchPooledTrial(b, n, sim.TorusTrialPooled(n, n, d, 3, core.TieRandom), 2)
			})
		}
	}
}

// BenchmarkTable2TorusDim4 extends the sweep to the four-dimensional
// torus: no specialized kernel exists for dim >= 4, so this family
// perf-tracks the any-dimension kernel, nearestN and its run-based
// shell walk (and its batch-pipeline integration), end to end. Sites
// are capped at 2^16 — a 2^20 dim-4 trial would dominate the CI smoke
// run without adding coverage.
func BenchmarkTable2TorusDim4(b *testing.B) {
	for _, n := range benchNs {
		if n > 1<<16 {
			continue
		}
		for _, d := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				benchPooledTrial(b, n, sim.TorusTrialPooled(n, n, d, 4, core.TieRandom), 2)
			})
		}
	}
}

// --- Table 3: tie-breaking strategies on the ring (d = 2) ---

func BenchmarkTable3TieBreaks(b *testing.B) {
	strategies := []struct {
		name string
		tie  core.TieBreak
	}{
		{"arc-larger", core.TieLarger},
		{"arc-random", core.TieRandom},
		{"arc-left", core.TieLeft},
		{"arc-smaller", core.TieSmaller},
	}
	for _, n := range benchNs {
		for _, s := range strategies {
			b.Run(fmt.Sprintf("n=%d/%s", n, s.name), func(b *testing.B) {
				benchPooledTrial(b, n, sim.RingTrialPooled(n, n, 2, s.tie, false), 3)
			})
		}
	}
}

// --- Figure 1 / Lemma 8: six-sector check over the exact diagram ---

func BenchmarkLemma8SectorCheck(b *testing.B) {
	const n, c = 1 << 10, 8.0
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(4, uint64(i))
		sp, err := torus.NewRandom(n, 2, r)
		if err != nil {
			b.Fatal(err)
		}
		diag, err := voronoi.Compute(sp)
		if err != nil {
			b.Fatal(err)
		}
		if _, viol := voronoi.CheckLemma8(sp, diag, c); viol != 0 {
			b.Fatalf("Lemma 8 violated %d times", viol)
		}
	}
}

// --- Lemma 4: arc-count tail ---

func BenchmarkLemma4ArcTail(b *testing.B) {
	const n, c = 1 << 14, 4.0
	var sum float64
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(5, uint64(i))
		sp, err := ring.NewRandom(n, r)
		if err != nil {
			b.Fatal(err)
		}
		sum += float64(sp.CountArcsAtLeast(c / n))
	}
	b.ReportMetric(sum/float64(b.N), "meanN_c")
	b.ReportMetric(tailbound.Lemma4CountBound(n, c), "bound")
}

// --- Lemma 6: longest-arc sum ---

func BenchmarkLemma6TopArcSum(b *testing.B) {
	const n, a = 1 << 14, 128
	var sum float64
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(6, uint64(i))
		sp, err := ring.NewRandom(n, r)
		if err != nil {
			b.Fatal(err)
		}
		sum += sp.TopArcSum(a)
	}
	b.ReportMetric(sum/float64(b.N), "meansum")
	b.ReportMetric(tailbound.Lemma6SumBound(n, a), "bound")
}

// --- Lemma 9: Voronoi area tail (exact areas) ---

func BenchmarkLemma9VoronoiTail(b *testing.B) {
	const n, c = 1 << 10, 8.0
	var sum float64
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(7, uint64(i))
		sp, err := torus.NewRandom(n, 2, r)
		if err != nil {
			b.Fatal(err)
		}
		diag, err := voronoi.Compute(sp)
		if err != nil {
			b.Fatal(err)
		}
		sum += float64(diag.CountAreasAtLeast(c / n))
	}
	b.ReportMetric(sum/float64(b.N), "meancount")
	b.ReportMetric(tailbound.Lemma9CountBound(n, c), "bound")
}

// --- E-MN: m != n scaling remark ---

func BenchmarkMNScaling(b *testing.B) {
	const n = 1 << 12
	for _, ratio := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("m_over_n=%d", ratio), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				r := rng.NewStream(8, uint64(i))
				sp, err := ring.NewRandom(n, r)
				if err != nil {
					b.Fatal(err)
				}
				a, err := core.New(sp, core.Config{D: 2})
				if err != nil {
					b.Fatal(err)
				}
				a.PlaceN(n*ratio, r)
				sum += float64(a.MaxLoad()) - float64(ratio)
			}
			b.ReportMetric(sum/float64(b.N), "maxload_minus_m/n")
		})
	}
}

// --- E-DIM: higher-dimension extension ---

func BenchmarkDim3Torus(b *testing.B) {
	const n = 1 << 12
	for _, d := range []int{1, 2} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				r := rng.NewStream(9, uint64(i))
				sp, err := torus.NewRandom(n, 3, r)
				if err != nil {
					b.Fatal(err)
				}
				a, err := core.New(sp, core.Config{D: d})
				if err != nil {
					b.Fatal(err)
				}
				a.PlaceN(n, r)
				sum += float64(a.MaxLoad())
			}
			b.ReportMetric(sum/float64(b.N), "maxload")
		})
	}
}

// --- E-UNI: classical uniform baseline (Azar et al.) ---

func BenchmarkUniformBaseline(b *testing.B) {
	const n = 1 << 12
	for _, d := range []int{1, 2} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				r := rng.NewStream(10, uint64(i))
				loads, err := balls.DChoices(n, n, d, r)
				if err != nil {
					b.Fatal(err)
				}
				sum += float64(stats.MaxLoad(loads))
			}
			b.ReportMetric(sum/float64(b.N), "maxload")
		})
	}
}

// --- E-FLU: fluid-limit solver ---

func BenchmarkFluidSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tail, err := fluid.Solve(2, 1, 30, 2000)
		if err != nil {
			b.Fatal(err)
		}
		if tail.MeanLoad() < 0.99 {
			b.Fatal("fluid solver lost mass")
		}
	}
}

// --- E-CH: Chord schemes ---

func BenchmarkChordSchemes(b *testing.B) {
	const n = 1 << 10
	schemes := []struct {
		name string
		v, d int
	}{
		{"plain", 1, 1},
		{"virtual10", 10, 1},
		{"choices2", 1, 2},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				r := rng.NewStream(11, uint64(i))
				nw, err := chord.NewNetwork(chord.Config{PhysicalServers: n, VirtualFactor: sc.v}, r)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < n; k++ {
					if _, err := nw.Insert(fmt.Sprintf("key-%d", k), sc.d, r); err != nil {
						b.Fatal(err)
					}
				}
				sum += float64(nw.MaxLoad())
			}
			b.ReportMetric(sum/float64(b.N), "maxload")
		})
	}
}

// --- Ablation: stratified vs independent choice generation ---

func BenchmarkAblationStratified(b *testing.B) {
	const n = 1 << 12
	for _, stratified := range []bool{false, true} {
		b.Run(fmt.Sprintf("stratified=%v", stratified), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				r := rng.NewStream(12, uint64(i))
				sp, err := ring.NewRandom(n, r)
				if err != nil {
					b.Fatal(err)
				}
				a, err := core.New(sp, core.Config{D: 2, Stratified: stratified})
				if err != nil {
					b.Fatal(err)
				}
				a.PlaceN(n, r)
				sum += float64(a.MaxLoad())
			}
			b.ReportMetric(sum/float64(b.N), "maxload")
		})
	}
}

// --- Ablation: grid NN index vs brute force on the torus hot path ---

func BenchmarkAblationNNIndex(b *testing.B) {
	const n = 1 << 12
	r := rng.New(13)
	sp, err := torus.NewRandom(n, 2, r)
	if err != nil {
		b.Fatal(err)
	}
	q := sp.Sample(r)
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp.SampleInto(q, r)
			sp.Nearest(q)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp.SampleInto(q, r)
			sp.NearestBrute(q)
		}
	})
}

// --- Ablation: grid density of the NN index ---

func BenchmarkAblationGridDensity(b *testing.B) {
	const n = 1 << 14
	r := rng.New(15)
	base, err := torus.NewRandom(n, 2, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{16, 64, 128, 256, 512} {
		sp, err := torus.FromSitesGrid(base.Sites(), 2, g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cells=%d", g), func(b *testing.B) {
			q := sp.Sample(r)
			for i := 0; i < b.N; i++ {
				sp.SampleInto(q, r)
				sp.Nearest(q)
			}
		})
	}
}

// --- E-QUEUE: supermarket model throughput ---

func BenchmarkSupermarket(b *testing.B) {
	const n = 1 << 10
	for _, d := range []int{1, 2} {
		b.Run(fmt.Sprintf("ring/d=%d", d), func(b *testing.B) {
			rs, err := ring.NewRandom(n, rng.New(16))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r := rng.NewStream(17, uint64(i))
				if _, err := queueing.Run(rs, queueing.Config{
					Lambda: 0.9, D: d, Warmup: 1, Horizon: 10,
				}, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-HR: hashring facade placement ---

func BenchmarkHashRingPlace(b *testing.B) {
	servers := make([]string, 1024)
	for i := range servers {
		servers[i] = fmt.Sprintf("server-%d", i)
	}
	for _, d := range []int{1, 2} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			hr, err := hashring.New(servers, hashring.WithChoices(d))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hr.Place(fmt.Sprintf("key-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hr.MaxLoad())/(float64(b.N)/1024), "maxload_over_mean")
		})
	}
}

// BenchmarkRingBuild times a cold start: hashring.New over 1024
// servers, then a PlaceBatch preload of 2^18 keys in 4096-key calls —
// perfbench ring-read's timed set-up at a quarter of its keys. ns/key
// divides the whole build, the ring's included, by the keys placed.
func BenchmarkRingBuild(b *testing.B) {
	const nkeys, block = 1 << 18, 4096
	servers := make([]string, 1024)
	for i := range servers {
		servers[i] = fmt.Sprintf("server-%d", i)
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	out := make([]router.BatchResult, block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hr, err := hashring.New(servers, hashring.WithChoices(2))
		if err != nil {
			b.Fatal(err)
		}
		for at := 0; at < nkeys; at += block {
			hr.PlaceBatch(keys[at:at+block], out)
			for j := range out {
				if out[j].Err != nil {
					b.Fatal(out[j].Err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nkeys, "ns/key")
}

// --- E-HRP: concurrent hashring router under parallel load ---

// BenchmarkHashRingLocateParallel drives the lock-free read path from
// GOMAXPROCS goroutines: the snapshot design should scale throughput
// with procs (compare ns/op against BenchmarkHashRingPlace-style serial
// runs, or the procs=1 record in cmd/benchjson output).
func BenchmarkHashRingLocateParallel(b *testing.B) {
	servers := make([]string, 1024)
	for i := range servers {
		servers[i] = fmt.Sprintf("server-%d", i)
	}
	hr, err := hashring.New(servers, hashring.WithChoices(2))
	if err != nil {
		b.Fatal(err)
	}
	const preload = 1 << 14
	keys := make([]string, preload)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if _, err := hr.Place(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := hr.Locate(keys[i&(preload-1)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkHashRingMixedParallel is the serving mix: mostly lookups
// with a write minority, all goroutines sharing one router.
func BenchmarkHashRingMixedParallel(b *testing.B) {
	servers := make([]string, 256)
	for i := range servers {
		servers[i] = fmt.Sprintf("server-%d", i)
	}
	hr, err := hashring.New(servers, hashring.WithChoices(2))
	if err != nil {
		b.Fatal(err)
	}
	const preload = 1 << 13
	keys := make([]string, preload)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if _, err := hr.Place(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		own := make([]string, 128)
		for i := range own {
			own[i] = fmt.Sprintf("w%d-%d", w, i)
		}
		r := rng.NewStream(21, uint64(w))
		placed, head, tail := 0, 0, 0
		for pb.Next() {
			if r.Float64() < 0.9 {
				if _, err := hr.Locate(keys[r.Intn(preload)]); err != nil {
					b.Fatal(err)
				}
			} else if placed == 0 || (placed < len(own) && r.Uint64()&1 == 0) {
				if _, err := hr.Place(own[head]); err != nil {
					b.Fatal(err)
				}
				head = (head + 1) % len(own)
				placed++
			} else {
				if err := hr.Remove(own[tail]); err != nil {
					b.Fatal(err)
				}
				tail = (tail + 1) % len(own)
				placed--
			}
		}
	})
}

// --- Ablation: exact Voronoi areas vs Monte-Carlo estimation ---

func BenchmarkAblationAreaMethod(b *testing.B) {
	const n = 1 << 10
	r := rng.New(14)
	sp, err := torus.NewRandom(n, 2, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := voronoi.Compute(sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("montecarlo100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			voronoi.MonteCarloAreas(sp, 100_000, r)
		}
	})
}
