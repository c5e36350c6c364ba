package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"geobalance/internal/core"
	"geobalance/internal/rng"
	"geobalance/internal/sim"
	"geobalance/internal/torus"
)

// torusSpec is the torus-alloc workload: pooled trials of the paper's
// Section 3 torus process, one Table 2 cell.
type torusSpec struct {
	n, dim, d int // sites, torus dimension, choices; m = n balls
	// probes is the lookups (Space.Locate) and single-ball placements
	// (Allocator.Place) that follow each trial: the allocator's read
	// and write calls.
	probes                int
	readEvery, writeEvery int64 // latency sample periods (powers of two)
	balance               int   // leading trials averaged for max_load_ratio
	check                 int   // leading trials recomputed through package sim
	// traced run: every traceEvery-th trial is traced, with every
	// 8th of its lookups and one pipeline block of batch queries
	traceEvery int64
	setupReps  int
}

// torusBench is one run of torus-alloc.
type torusBench struct {
	spec *torusSpec
	seed uint64
	next atomic.Int64 // next trial index
}

// trialWorker runs trials on its own space and allocator, re-seeded
// per trial from (seed, trial index) exactly as sim.RunFactory does.
type trialWorker struct {
	tb   *torusBench
	sp   *torus.Space
	a    *core.Allocator
	r    rng.Rand
	pts  []float64 // lookup points, cycled
	ppos int

	maxLoad     map[int64]int // trial index -> max load
	ops, failed int64
	nreads      int64
	nwrites     int64
	readLat     samples
	writeLat    samples
	tr          *tracer
	simTrial    sim.TrialFunc // the pooled trial, timed in the traced run
	simR        rng.Rand
	query       []float64 // one pipeline block of candidate points
	queryOut    []int32
	tsc         torus.BatchScratch
}

// build is the timed set-up: each worker's NewRandom and core.New.
func (tb *torusBench) build() ([]*trialWorker, error) {
	s := tb.spec
	ws := make([]*trialWorker, callers)
	for w := range ws {
		sp, err := torus.NewRandom(s.n, s.dim, rng.NewStream(tb.seed, 1<<32|uint64(w)))
		if err != nil {
			return nil, err
		}
		a, err := core.New(sp, core.Config{D: s.d, Tie: core.TieRandom})
		if err != nil {
			return nil, err
		}
		ws[w] = &trialWorker{tb: tb, sp: sp, a: a}
	}
	return ws, nil
}

func (w *trialWorker) tally() (int64, int64) { return w.ops, w.failed }

func (w *trialWorker) run(deadline int64) {
	s, seed := w.tb.spec, w.tb.seed
	for now() < deadline {
		t := w.tb.next.Add(1) - 1
		var root int32 = -1
		if w.tr != nil && t%s.traceEvery == 0 {
			root = w.tr.begin(uint64(t))
		}
		w.r.SeedStream(seed, uint64(t))
		t0 := now()
		w.sp.Reseed(&w.r)
		if root >= 0 {
			w.tr.rec(spReseed, root, 1, t0)
			t0 = now()
		}
		w.a.Reset()
		if root >= 0 {
			w.tr.rec(spReset, root, 1, t0)
		}
		t0 = now()
		w.a.PlaceN(s.n, &w.r)
		if root >= 0 {
			w.tr.rec(spPlaceN, root, s.n, t0)
		}
		w.maxLoad[t] = w.a.MaxLoad()
		for i := 0; i < s.probes; i++ {
			w.lookup(root >= 0 && i%8 == 0, root)
			w.place()
		}
		if root >= 0 {
			w.replay(root, t)
			w.tr.end(root)
		}
		w.ops += int64(s.n + 2*s.probes)
	}
}

// lookup asks which site owns the next point.
func (w *trialWorker) lookup(traced bool, root int32) {
	dim := w.tb.spec.dim
	p := w.pts[w.ppos : w.ppos+dim]
	if w.ppos += dim; w.ppos == len(w.pts) {
		w.ppos = 0
	}
	w.nreads++
	timed := traced || w.nreads&(w.tb.spec.readEvery-1) == 0
	var t0 int64
	if timed {
		t0 = now()
	}
	w.sp.Locate(p)
	if traced {
		w.tr.rec(spNearest, root, 1, t0)
	} else if timed {
		w.readLat.add(now() - t0)
	}
}

// place adds one ball, after the trial's max load is recorded.
func (w *trialWorker) place() {
	w.nwrites++
	if w.nwrites&(w.tb.spec.writeEvery-1) != 0 {
		w.a.Place(&w.r)
		return
	}
	t0 := now()
	w.a.Place(&w.r)
	w.writeLat.add(now() - t0)
}

// replay times, on a traced trial, one block of candidate points
// through the batch kernel the allocator's pipeline uses, and the whole
// trial through sim's pooled trial function, whose max load must match.
func (w *trialWorker) replay(root int32, t int64) {
	for i := range w.query {
		w.query[i] = w.r.Float64()
	}
	t0 := now()
	w.sp.NearestBatchInto(&w.tsc, w.query, w.queryOut)
	w.tr.rec(spNearestBatch, root, len(w.queryOut), t0)
	w.simR.SeedStream(w.tb.seed, uint64(t))
	t0 = now()
	v, err := w.simTrial(&w.simR)
	w.tr.rec(spTrial, root, 1, t0)
	if err != nil || v != w.maxLoad[t] {
		w.failed++
	}
}

// check recomputes the leading trials with sim's allocating and pooled
// trial functions; their max loads must equal the measured ones.
func (tb *torusBench) check(loads map[int64]int) error {
	s := tb.spec
	plain := sim.TorusTrial(s.n, s.n, s.d, s.dim, core.TieRandom)
	pooled := sim.TorusTrialPooled(s.n, s.n, s.d, s.dim, core.TieRandom)()
	for t := int64(0); t < int64(s.check); t++ {
		got, ok := loads[t]
		if !ok {
			return fmt.Errorf("trial %d did not run; %d trials completed", t, len(loads))
		}
		a, err := plain(rng.NewStream(tb.seed, uint64(t)))
		if err != nil {
			return err
		}
		b, err := pooled(rng.NewStream(tb.seed, uint64(t)))
		if err != nil {
			return err
		}
		if a != got || b != got {
			return fmt.Errorf("trial %d: max load %d measured, %d by sim.TorusTrial, %d by sim.TorusTrialPooled", t, got, a, b)
		}
	}
	return nil
}

// runTorus builds torus-alloc, runs it, checks it and fills in its
// metrics.
func runTorus(s *torusSpec, seed uint64, d time.Duration, traced bool, out *report) error {
	tb := &torusBench{spec: s, seed: seed}
	ws, st, err := timeSetup(s.setupReps, tb.build, func([]*trialWorker) {})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out.setup = st
	all := make([]worker, len(ws))
	for i, w := range ws {
		r := rng.NewStream(seed, uint64(2+i))
		w.pts = make([]float64, (1<<16)*s.dim)
		for j := range w.pts {
			w.pts[j] = r.Float64()
		}
		w.maxLoad = make(map[int64]int)
		w.readLat, w.writeLat = newSamples(sampleCap), newSamples(sampleCap)
		all[i] = w
	}
	loads := func() map[int64]int {
		m := make(map[int64]int)
		for _, w := range ws {
			for t, v := range w.maxLoad {
				m[t] = v
			}
		}
		return m
	}
	if !traced {
		var rs, wrs []*samples
		for _, w := range ws {
			rs, wrs = append(rs, &w.readLat), append(wrs, &w.writeLat)
		}
		ps, err := measure(all, d, windows, nil)
		if err != nil {
			return err
		}
		out.windows = ps
		out.read, out.write = quantiles(rs), quantiles(wrs)
		m := loads()
		k := min(s.balance, len(m))
		var sum int
		for t := int64(0); t < int64(k); t++ {
			sum += m[t]
		}
		// m = n balls, so m/n = 1 and the ratio is the mean max load.
		out.balance = float64(sum) / float64(k)
		return tb.check(m)
	}
	base, err := measure1(all, scale(d, 0.5), nil)
	if err != nil {
		return err
	}
	var tracers []*tracer
	for _, w := range ws {
		w.tr = newTracer(spanCap)
		tracers = append(tracers, w.tr)
		w.simTrial = sim.TorusTrialPooled(s.n, s.n, s.d, s.dim, core.TieRandom)()
		w.query = make([]float64, 8192*s.d*s.dim)
		w.queryOut = make([]int32, 8192*s.d)
	}
	tp, err := measure1(all, scale(d, 0.5), nil)
	if err != nil {
		return err
	}
	out.windows = []phase{base, tp}
	ss := spanStats{tracers: tracers, clock: clockCost()}
	out.spans = ss
	out.runtime(base, tp)
	out.set("torus.reseed_ms", ss.perCall(spReseed, 0)/1e6)
	out.set("core.place_ns_per_ball", ss.perCall(spPlaceN, 0))
	out.set("sim.trial_ms", ss.perCall(spTrial, 0)/1e6)
	out.set("torus.nearest_ns", ss.perCall(spNearest, 0))
	out.set("torus.nearest_batch_ns_per_query", ss.perCall(spNearestBatch, 0))
	return tb.check(loads())
}
