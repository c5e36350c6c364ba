// Package loadgen drives the concurrent serving layer with the skewed
// traffic the paper's applications face in production: N worker
// goroutines issuing Zipf-, Pareto-, or uniform-keyed Locate traffic
// plus Place/Remove write churn, optionally racing a membership
// churner that adds and removes servers (with Rebalance) while the
// workers run.
//
// The harness drives any router built on internal/router's core,
// selected by Config.Space: the ring-backed hashring facade (the
// default) or the torus-backed geographic router router.Geo, whose
// churned servers join at random torus coordinates. The Target
// interface is the method set the harness needs; both facades satisfy
// it. Run builds and preloads the router, drives the traffic (one
// worker loop and one op path, worker.go), and audits the result.
//
// Each worker draws from its own deterministic rng stream
// (rng.NewStream(seed, worker)), keeps its own latency histograms, and
// merges them at the end, so a run is reproducible given (Config, Seed)
// up to OS scheduling of the op interleaving — throughput and latency
// are measured, correctness is asserted by the router invariants.
package loadgen

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/hashring"
	"geobalance/internal/journal"
	"geobalance/internal/metrics"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/stats"
	"geobalance/internal/workload"
)

// Target is the serving surface the harness drives: the method set
// shared by hashring.Ring and router.Geo, including the replication,
// failover, live-migration and durability surface the failure scripts
// exercise. A kill event restarts the router in place (Restart), so
// the harness drives the same router object from start to finish.
type Target interface {
	Place(key string) (string, error)
	Locate(key string) (string, error)
	LocateAny(key string) (string, error)
	Owners(key string, dst []string) ([]string, error)
	Remove(key string) error
	PlaceBatch(keys []string, out []router.BatchResult)
	LocateBatch(keys []string, out []router.BatchResult)
	RemoveBatch(keys []string, out []router.BatchResult)
	RemoveServer(name string) error
	Rebalance() int
	Repair() (repaired, lost int)
	SetReplication(rep int) error
	SetDraining(name string, draining bool) error
	SetCapacity(name string, capacity float64) error
	SetBoundedLoad(c float64) error
	MeanRelLoad() float64
	MaxRelLoad() float64
	PlanMigration(limit int) *router.MigrationPlan
	Instrument(reg *metrics.Registry) *router.Metrics
	StartJournal(dir string, opts journal.Options) (*journal.Log, error)
	Restart() (*journal.Recovered, error)
	CloseJournal() error
	Servers() []string
	NumKeys() int
	NumServers() int
	MaxLoad() int64
	LoadsInto(map[string]int64)
	CheckInvariants() error
}

// Config parameterizes one load-test run. Zero fields take the
// documented defaults.
type Config struct {
	Space       string        // "ring" (default) or "torus"
	Dim         int           // torus dimension (default 2; torus space only)
	Servers     int           // fleet size (default 64)
	Choices     int           // d (default 2)
	Replicas    int           // ring: positions per server; torus: alias for KeyReplicas (default 1)
	KeyReplicas int           // replicas per key, <= Choices (default 1; >1 pins each key to its top-r candidates)
	Workers     int           // traffic goroutines (default GOMAXPROCS)
	Ops         int64         // total op budget; used when Duration == 0
	Duration    time.Duration // wall-clock bound; 0 = ops-bound
	Keys        int           // preloaded hot-key space (default 8192)
	Dist        string        // "zipf", "pareto", or "uniform" (default zipf)
	ZipfS       float64       // Zipf exponent (default 1.1)
	ParetoAlpha float64       // Pareto shape (default 1.2)
	LookupFrac  float64       // fraction of ops that are Locate; 0 = pure write traffic (the CLI defaults to 0.9)
	ChurnEvery  time.Duration // membership change period; 0 = no churn
	Rebalance   bool          // rebalance after every churn event
	Failures    FailureScript // scripted failure events racing the traffic; see failures.go
	SampleEvery int           // measure latency on every k-th op (default 8)
	Batch       int           // ops per bulk call; > 1 drives the batch serving path, 0/1 the scalar path (worker.go)
	ReportEvery time.Duration // interim load reports to ReportTo; 0 = none
	ReportTo    io.Writer     // destination for interim reports (required when ReportEvery > 0)
	Seed        uint64

	// Overload protection. BoundedLoad > 1 arms the router's
	// bounded-load admission (router.SetBoundedLoad); Capacities
	// assigns heterogeneous per-server capacity weights to the initial
	// fleet (see ParseCapacities); ServiceRate > 0 attaches the
	// simulated per-server service-time model (ops/sec a capacity-1
	// server serves — see serviceModel), which the sojourn histogram,
	// hedging, and the breaker all hang off.
	BoundedLoad float64
	Capacities  []CapacityClass
	ServiceRate float64

	// Client retry discipline for placements rejected with
	// router.ErrOverloaded: up to Retries retries with full-jitter
	// capped exponential backoff (RetryBase doubling up to RetryCap,
	// floored at the rejection's retry-after hint). An op that exhausts
	// its retries — or would blow through OpDeadline — is SHED: counted
	// in Result.Shed, never silently dropped, so open-loop goodput
	// stays coordination-omission-free. Retries = 0 sheds on first
	// rejection.
	Retries    int
	RetryBase  time.Duration // default 1ms
	RetryCap   time.Duration // default 50ms
	OpDeadline time.Duration // wall-clock budget per op incl. retries; 0 = none

	// HedgeAfter > 0 arms hedged reads (needs ServiceRate > 0 and key
	// replication to matter): a read whose primary sojourn exceeds
	// HedgeAfter issues a second read to an alternate replica and keeps
	// the faster of the two. Slow reads also feed a per-server circuit
	// breaker (BreakerTrip consecutive slow reads open it for
	// BreakerCooldown) that routes reads straight to the alternate
	// while open.
	HedgeAfter      time.Duration
	BreakerTrip     int           // consecutive slow reads to open (default 8)
	BreakerCooldown time.Duration // how long an open breaker holds (default 100ms)

	// Arrivals switches the run from closed loop (workers issue ops
	// back to back against the Ops/Duration budget) to open loop: the
	// schedule fixes every arrival's timestamp, workers claim arrival
	// indices from a shared counter and sleep until each is due, and
	// the run ends when the schedule is exhausted (or Duration, when
	// set, cuts it short). Ops is ignored. See arrivals.go.
	Arrivals *ArrivalSchedule

	// Registry, when set, instruments the run: the target router gets
	// the full router_* instrument set (Target.Instrument) and the
	// harness counts its own traffic under loadgen_* (NewLoadMetrics).
	// Nil runs stay on the zero-alloc uninstrumented paths.
	Registry *metrics.Registry

	// JournalDir, when set, makes the run durable: after the hot keys
	// are preloaded the target starts a write-ahead journal in that
	// directory (snapshot at attach, every later mutation logged), and a
	// scripted kill event crashes the router mid-traffic and recovers it
	// in place from that journal. Run closes and detaches the journal
	// before it returns. Required by kill events; useful on its own to
	// measure journaled-placement overhead under live load.
	JournalDir string

	// ReportFunc, when set, replaces the default interim report line:
	// it is called every ReportEvery with the elapsed time and the
	// router under test (the -watch terminal view hangs off this
	// hook). Called from the reporting goroutine; it must not block
	// for long.
	ReportFunc func(elapsed time.Duration, target Target)
}

// Result aggregates one run. The latency histograms hold sampled
// latencies (every SampleEvery-th op), the counters hold every op.
type Result struct {
	Elapsed    time.Duration
	Ops        int64
	Throughput float64 // ops per second, all types
	Lookups    int64
	Places     int64
	Removes    int64
	Errors     int64

	// FailedReads counts lookups that found no live replica — the
	// window between a crash and its repair. Kept apart from Errors:
	// they are the degradation a failure script inflicts on purpose.
	FailedReads int64
	// Failures records each scripted failure event's outcome in order.
	Failures []FailureOutcome
	// LostKeys counts hot keys unreadable after the final repair — the
	// zero-lost-keys acceptance check. Only populated when the run used
	// replication or a failure script.
	LostKeys int

	// Overload discipline tallies. Rejections counts every
	// ErrOverloaded a placement attempt received; Retries the backoff
	// sleeps taken; Recovered the ops that succeeded after at least one
	// retry; Shed the ops abandoned after exhausting retries or their
	// deadline (shed ops are NOT in Ops/Places — they never completed);
	// DeadlineMisses the ops cut off by OpDeadline; Hedges the hedged
	// second reads issued; BreakerOpens the breaker trip transitions.
	Rejections     int64
	Retries        int64
	Recovered      int64
	Shed           int64
	DeadlineMisses int64
	Hedges         int64
	BreakerOpens   int64

	// Simulated service-time results (ServiceRate > 0 only): the
	// sampled sojourn histogram, the deepest virtual backlog at the end
	// of the run, and the router's final max relative (per-capacity)
	// load.
	Sojourn    stats.LatencyHist
	MaxBacklog time.Duration
	WorstQueue string
	MaxRelLoad float64

	Lookup stats.LatencyHist
	Place  stats.LatencyHist
	Remove stats.LatencyHist

	// Open-loop runs only: the arrivals the schedule offered and the
	// issue-lag histogram (how far behind schedule each op started —
	// the open-loop stand-in for queueing delay).
	Offered int64
	Lag     stats.LatencyHist

	ChurnEvents int
	MovedKeys   int

	FinalKeys int
	MaxLoad   int64
	MeanLoad  float64
	Workers   int
	Procs     int

	// Router is the driven router after the run, for invariant checks.
	Router Target
}

func (cfg *Config) applyDefaults() error {
	if cfg.Space == "" {
		cfg.Space = "ring"
	}
	if cfg.Dim == 0 {
		cfg.Dim = 2
	}
	if cfg.Servers == 0 {
		cfg.Servers = 64
	}
	if cfg.Choices == 0 {
		cfg.Choices = 2
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1 << 13
	}
	if cfg.Dist == "" {
		cfg.Dist = "zipf"
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.ParetoAlpha == 0 {
		cfg.ParetoAlpha = 1.2
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 8
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1
	}
	if cfg.Batch < 1 || cfg.Batch > 1<<16 {
		return fmt.Errorf("loadgen: batch size %d out of [1, %d]", cfg.Batch, 1<<16)
	}
	// On the torus, Replicas is an alias for KeyReplicas: the ring's
	// "positions per server" meaning does not exist there, and key
	// replication is the torus-native reading of an r-way request.
	if cfg.Space == "torus" && cfg.Replicas != 1 {
		if cfg.KeyReplicas != 0 && cfg.KeyReplicas != cfg.Replicas {
			return fmt.Errorf("loadgen: replicas=%d conflicts with key replicas=%d (on the torus they are the same knob)",
				cfg.Replicas, cfg.KeyReplicas)
		}
		cfg.KeyReplicas = cfg.Replicas
	}
	if cfg.KeyReplicas == 0 {
		cfg.KeyReplicas = 1
	}
	if cfg.KeyReplicas < 1 || cfg.KeyReplicas > cfg.Choices || cfg.KeyReplicas > router.MaxReplicas {
		return fmt.Errorf("loadgen: need 1 <= key replicas <= min(choices=%d, %d), got %d",
			cfg.Choices, router.MaxReplicas, cfg.KeyReplicas)
	}
	// A script event past the run horizon would silently never fire:
	// reject it loudly instead when the horizon is knowable up front.
	horizon := cfg.Duration
	if horizon <= 0 && cfg.Arrivals != nil {
		horizon = cfg.Arrivals.Duration()
	}
	for i := range cfg.Failures {
		if err := cfg.Failures[i].validate(); err != nil {
			return err
		}
		if horizon > 0 && cfg.Failures[i].After >= horizon {
			return fmt.Errorf("loadgen: failure %s at offset %v would never fire (run horizon %v)",
				cfg.Failures[i].Kind, cfg.Failures[i].After, horizon)
		}
		if cfg.Failures[i].Kind == FailKill && cfg.JournalDir == "" {
			return fmt.Errorf("loadgen: kill failure needs a journal to recover from (set JournalDir)")
		}
	}
	if cfg.BoundedLoad != 0 && !(cfg.BoundedLoad > 1) {
		return fmt.Errorf("loadgen: bounded-load factor %v: need c > 1 (or 0 to disable)", cfg.BoundedLoad)
	}
	if cfg.ServiceRate < 0 || cfg.Retries < 0 {
		return fmt.Errorf("loadgen: service rate and retries must be >= 0")
	}
	if cfg.HedgeAfter > 0 && cfg.ServiceRate <= 0 {
		return fmt.Errorf("loadgen: hedged reads need the service-time model (set ServiceRate > 0)")
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryCap == 0 {
		cfg.RetryCap = 50 * time.Millisecond
	}
	if cfg.RetryBase <= 0 || cfg.RetryCap < cfg.RetryBase {
		return fmt.Errorf("loadgen: need 0 < retry base <= retry cap, got %v, %v", cfg.RetryBase, cfg.RetryCap)
	}
	if cfg.BreakerTrip == 0 {
		cfg.BreakerTrip = 8
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 100 * time.Millisecond
	}
	if cfg.BreakerTrip < 1 || cfg.BreakerCooldown < 0 {
		return fmt.Errorf("loadgen: need breaker trip >= 1 and cooldown >= 0")
	}
	if cfg.Servers < 1 || cfg.Workers < 1 || cfg.Keys < 2 {
		return fmt.Errorf("loadgen: need servers >= 1, workers >= 1, keys >= 2")
	}
	if cfg.LookupFrac < 0 || cfg.LookupFrac > 1 {
		return fmt.Errorf("loadgen: lookup fraction %v out of [0,1]", cfg.LookupFrac)
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 && cfg.Arrivals == nil {
		return fmt.Errorf("loadgen: need an op budget, a duration, or an arrival schedule")
	}
	if cfg.ReportEvery > 0 && cfg.ReportTo == nil && cfg.ReportFunc == nil {
		return fmt.Errorf("loadgen: ReportEvery set without a ReportTo writer or ReportFunc")
	}
	return nil
}

func (cfg *Config) ranker() (workload.Ranker, error) {
	switch cfg.Dist {
	case "zipf":
		return workload.NewZipf(cfg.ZipfS, uint64(cfg.Keys))
	case "pareto":
		return workload.NewParetoRanks(cfg.ParetoAlpha, uint64(cfg.Keys))
	case "uniform":
		return workload.NewUniformRanks(uint64(cfg.Keys))
	default:
		return nil, fmt.Errorf("loadgen: unknown key distribution %q (want zipf, pareto, or uniform)", cfg.Dist)
	}
}

// harness is one run's shared state: the router under test and what
// the workers, the churner, the failure script and the reporter read.
type harness struct {
	cfg      Config
	target   Target
	join     func(name string, r *rng.Rand) error // adds a churned server
	caps     map[string]float64                   // server capacities, for the service model
	rk       workload.Ranker
	hot      []string // the preloaded keys lookups draw from
	lm       *LoadMetrics
	failover bool // reads fail over (LocateAny) and the audit counts lost keys

	// Set when the traffic starts.
	start time.Time
	model *serviceModel
	br    *breakerSet
}

// Run executes one load-test run: build and preload the router, drive
// the traffic, audit the result, then close the run's journal.
func Run(cfg Config) (*Result, error) {
	h, err := build(cfg)
	if err != nil {
		return nil, err
	}
	res := h.drive()
	h.audit(res)
	// Detached as well as closed, so Result.Router keeps taking writes.
	if err := h.target.CloseJournal(); err != nil {
		return nil, fmt.Errorf("loadgen: closing the journal: %w", err)
	}
	return res, nil
}

// build validates the config and readies the router under test: the
// initial fleet and its capacities, replication, instrumentation, the
// preloaded hot keys, bounded-load admission and the journal.
func build(cfg Config) (*harness, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	h := &harness{cfg: cfg, failover: cfg.KeyReplicas > 1 || len(cfg.Failures) > 0}
	var err error
	if h.rk, err = cfg.ranker(); err != nil {
		return nil, err
	}
	if err := h.buildTarget(); err != nil {
		return nil, err
	}
	if cfg.KeyReplicas > 1 {
		if err := h.target.SetReplication(cfg.KeyReplicas); err != nil {
			return nil, err
		}
	}
	// Optional instrumentation: router_* on the target, loadgen_* for
	// the harness's own traffic, and journal_* on the journal when the
	// run is durable. Nil stays on the uninstrumented paths.
	if cfg.Registry != nil {
		h.target.Instrument(cfg.Registry)
		h.lm = NewLoadMetrics(cfg.Registry)
		h.lm.Workers.Set(int64(cfg.Workers))
	}
	// Preload the hot-key space the Locate traffic reads. The bound is
	// armed only afterwards: preloaded keys are the pre-existing data
	// set, not the admission-controlled arrivals.
	h.hot = make([]string, cfg.Keys)
	for i := range h.hot {
		h.hot[i] = "hot:" + strconv.Itoa(i)
		if _, err := h.target.Place(h.hot[i]); err != nil {
			return nil, err
		}
	}
	if cfg.BoundedLoad > 0 {
		if err := h.target.SetBoundedLoad(cfg.BoundedLoad); err != nil {
			return nil, err
		}
	}
	// Durable mode: the journal starts after the preload, so its
	// snapshot carries the initial fleet and hot-key set and the WAL
	// records only the run's own mutations.
	if cfg.JournalDir != "" {
		var jopts journal.Options
		if cfg.Registry != nil {
			jopts.Metrics = journal.NewMetrics(cfg.Registry)
		}
		if _, err := h.target.StartJournal(cfg.JournalDir, jopts); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// buildTarget constructs the router under test with its initial fleet
// and capacity bands, and the join its churner adds servers with.
func (h *harness) buildTarget() error {
	cfg := &h.cfg
	names := make([]string, cfg.Servers)
	for i := range names {
		names[i] = "server-" + strconv.Itoa(i)
	}
	switch cfg.Space {
	case "ring":
		ring, err := hashring.New(names,
			hashring.WithChoices(cfg.Choices), hashring.WithReplicas(cfg.Replicas))
		if err != nil {
			return err
		}
		h.target = ring
		h.join = func(name string, _ *rng.Rand) error { return ring.AddServer(name) }
	case "torus":
		geo, err := router.NewGeo(cfg.Dim, cfg.Choices)
		if err != nil {
			return err
		}
		h.target = geo
		// Servers join at uniform random torus coordinates.
		h.join = func(name string, r *rng.Rand) error {
			at := make(geom.Vec, cfg.Dim)
			for j := range at {
				at[j] = r.Float64()
			}
			return geo.AddServer(name, at)
		}
		// Deterministic initial placement from a stream the workers and
		// churner never touch.
		sr := rng.NewStream(cfg.Seed, 1<<33)
		for _, name := range names {
			if err := h.join(name, sr); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("loadgen: unknown space %q (want ring or torus)", cfg.Space)
	}
	var err error
	h.caps, err = assignCapacities(h.target, names, cfg.Capacities)
	return err
}

// drive runs the workers against the router, racing the failure
// script, the membership churner and the reporting loop, and tallies
// the traffic once every worker is done.
func (h *harness) drive() *Result {
	cfg := &h.cfg
	h.start = time.Now()
	if cfg.ServiceRate > 0 {
		h.model = newServiceModel(cfg.ServiceRate, h.caps, h.start)
	}
	if cfg.HedgeAfter > 0 {
		h.br = newBreakerSet(cfg.BreakerTrip, cfg.BreakerCooldown)
	}
	src := h.newSource()
	workers := make([]*worker, cfg.Workers)
	var traffic sync.WaitGroup
	for i := range workers {
		workers[i] = h.newWorker(i)
		traffic.Add(1)
		go func(w *worker) {
			defer traffic.Done()
			w.run(src)
		}(workers[i])
	}

	var (
		side        sync.WaitGroup
		outcomes    []FailureOutcome
		churnEvents int
		moved       int
	)
	stop := make(chan struct{})
	if len(cfg.Failures) > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			outcomes = h.runFailures(stop)
		}()
	}
	if cfg.ChurnEvery > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			churnEvents, moved = h.churn(stop)
		}()
	}
	if cfg.ReportEvery > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			h.report(stop)
		}()
	}
	traffic.Wait()
	close(stop)
	side.Wait()
	elapsed := time.Since(h.start)

	res := &Result{
		Elapsed:     elapsed,
		Failures:    outcomes,
		ChurnEvents: churnEvents,
		MovedKeys:   moved,
		Workers:     cfg.Workers,
		Procs:       runtime.GOMAXPROCS(0),
		Router:      h.target,
	}
	for _, w := range workers {
		ws := &w.workerStats
		res.Lookups += ws.lookups
		res.Places += ws.places
		res.Removes += ws.removes
		res.Errors += ws.errors
		res.FailedReads += ws.failedReads
		res.Rejections += ws.rejections
		res.Retries += ws.retries
		res.Recovered += ws.recovered
		res.Shed += ws.shed
		res.DeadlineMisses += ws.deadlineMisses
		res.Hedges += ws.hedges
		res.Lookup.Merge(&ws.lookup)
		res.Place.Merge(&ws.place)
		res.Remove.Merge(&ws.remove)
		res.Lag.Merge(&ws.lag)
		res.Sojourn.Merge(&ws.sojourn)
	}
	if h.br != nil {
		res.BreakerOpens = h.br.openCount()
	}
	if h.model != nil {
		res.WorstQueue, res.MaxBacklog = h.model.maxBacklog()
	}
	res.MaxRelLoad = h.target.MaxRelLoad()
	if cfg.Arrivals != nil {
		res.Offered = cfg.Arrivals.Total()
	}
	res.Ops = res.Lookups + res.Places + res.Removes
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	return res
}

// churn is the membership churner: every ChurnEvery it adds a server
// or removes the oldest one it added (optionally rebalancing), until
// stop closes. It returns the events fired and the keys rebalanced.
func (h *harness) churn(stop <-chan struct{}) (events, moved int) {
	tick := time.NewTicker(h.cfg.ChurnEvery)
	defer tick.Stop()
	var added []string
	next := 0
	cr := rng.NewStream(h.cfg.Seed, 1<<32)
	for {
		select {
		case <-stop:
			return events, moved
		case <-tick.C:
		}
		var err error
		if len(added) == 0 || (len(added) < 8 && cr.Intn(2) == 0) {
			name := "churn-" + strconv.Itoa(next)
			next++
			if err = h.join(name, cr); err == nil {
				added = append(added, name)
			}
		} else {
			err = h.target.RemoveServer(added[0])
			added = added[1:]
		}
		if err == nil {
			events++
			if h.lm != nil {
				h.lm.ChurnEvents.Inc(0)
			}
		}
		if h.cfg.Rebalance {
			moved += h.target.Rebalance()
		}
	}
}

// report is the reporting loop: every ReportEvery it folds the live
// load counters into a reused map (the allocation-free LoadsInto path)
// and prints an interim imbalance line, or hands the router to
// ReportFunc, until stop closes.
func (h *harness) report(stop <-chan struct{}) {
	cfg := &h.cfg
	tick := time.NewTicker(cfg.ReportEvery)
	defer tick.Stop()
	loads := make(map[string]int64, cfg.Servers+8)
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if cfg.ReportFunc != nil {
			cfg.ReportFunc(time.Since(h.start), h.target)
			continue
		}
		h.target.LoadsInto(loads)
		var total, max int64
		for _, l := range loads {
			total += l
			if l > max {
				max = l
			}
		}
		mean := float64(total) / float64(len(loads))
		ratio := 0.0
		if mean > 0 {
			ratio = float64(max) / mean
		}
		fmt.Fprintf(cfg.ReportTo, "  [%7.3fs] %d keys on %d servers   max load %d (%.2fx mean)\n",
			time.Since(h.start).Seconds(), total, len(loads), max, ratio)
	}
}

// audit finishes the result after the traffic: with failover on, the
// zero-lost-keys check — after a final repair converges, every
// preloaded hot key must still be readable somewhere — and then the
// final key count and load spread.
func (h *harness) audit(res *Result) {
	if h.failover {
		h.target.Repair()
		for _, key := range h.hot {
			if _, err := h.target.LocateAny(key); err != nil {
				res.LostKeys++
			}
		}
	}
	res.FinalKeys = h.target.NumKeys()
	loads := make(map[string]int64, h.cfg.Servers+8)
	h.target.LoadsInto(loads)
	var total int64
	for _, l := range loads {
		total += l
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
	}
	if len(loads) > 0 {
		res.MeanLoad = float64(total) / float64(len(loads))
	}
}

// Report renders the run in the human-readable form the loadtest
// subcommand prints.
func (r *Result) Report(w io.Writer) {
	fmt.Fprintf(w, "elapsed %v   %d ops (%.0f ops/sec)   workers %d   GOMAXPROCS %d\n",
		r.Elapsed.Round(time.Millisecond), r.Ops, r.Throughput, r.Workers, r.Procs)
	fmt.Fprintf(w, "  lookups %d   places %d   removes %d   errors %d\n",
		r.Lookups, r.Places, r.Removes, r.Errors)
	if r.Offered > 0 {
		fmt.Fprintf(w, "  open loop: %d of %d scheduled arrivals issued\n", r.Ops, r.Offered)
		if r.Lag.N() > 0 {
			fmt.Fprintf(w, "  issue lag: %v\n", r.Lag.String())
		}
	}
	if r.FailedReads > 0 {
		fmt.Fprintf(w, "  failed reads (no live replica, pre-repair): %d\n", r.FailedReads)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f.String())
	}
	if len(r.Failures) > 0 || r.FailedReads > 0 {
		fmt.Fprintf(w, "  lost keys after final repair: %d\n", r.LostKeys)
	}
	if r.Rejections > 0 || r.Shed > 0 || r.Retries > 0 {
		fmt.Fprintf(w, "  overload: %d rejections   %d retries   %d recovered   %d shed\n",
			r.Rejections, r.Retries, r.Recovered, r.Shed)
		good := r.Ops - r.Errors - r.FailedReads
		if r.Elapsed > 0 {
			line := fmt.Sprintf("  goodput: %.0f ops/sec", float64(good)/r.Elapsed.Seconds())
			if r.Offered > 0 {
				line += fmt.Sprintf(" (%.1f%% of %d offered)", 100*float64(good)/float64(r.Offered), r.Offered)
			}
			fmt.Fprintf(w, "%s\n", line)
		}
	}
	if r.Hedges > 0 || r.BreakerOpens > 0 || r.DeadlineMisses > 0 {
		fmt.Fprintf(w, "  hedged reads %d   breaker opens %d   deadline misses %d\n",
			r.Hedges, r.BreakerOpens, r.DeadlineMisses)
	}
	if r.Sojourn.N() > 0 {
		fmt.Fprintf(w, "  sojourn (simulated service): %v\n", r.Sojourn.String())
		if r.MaxBacklog > 0 {
			fmt.Fprintf(w, "  deepest virtual queue at end: %v on %s\n",
				r.MaxBacklog.Round(time.Millisecond), r.WorstQueue)
		}
	}
	if r.MaxRelLoad > 0 && (r.Rejections > 0 || r.Shed > 0) {
		fmt.Fprintf(w, "  max relative load (load/capacity): %.2f\n", r.MaxRelLoad)
	}
	if r.Lookup.N() > 0 {
		fmt.Fprintf(w, "  locate  latency: %v\n", r.Lookup.String())
	}
	if r.Place.N() > 0 {
		fmt.Fprintf(w, "  place   latency: %v\n", r.Place.String())
	}
	if r.Remove.N() > 0 {
		fmt.Fprintf(w, "  remove  latency: %v\n", r.Remove.String())
	}
	if r.ChurnEvents > 0 {
		fmt.Fprintf(w, "  churn: %d membership events, %d keys moved by rebalance\n",
			r.ChurnEvents, r.MovedKeys)
	}
	if r.MeanLoad > 0 {
		fmt.Fprintf(w, "  final: %d keys on %d servers   max load %d (%.2fx mean)\n",
			r.FinalKeys, r.Router.NumServers(), r.MaxLoad, float64(r.MaxLoad)/r.MeanLoad)
	}
}
