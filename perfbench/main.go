// Command perfbench is the repository's end-to-end benchmark. It builds
// one workload's router or allocator from a seed, drives it from a
// closed loop of callers for a fixed time, checks the outcome and
// prints one JSON result line; with -trace 1 it prints the per-layer
// metrics of a separate traced run instead. README.md records the
// workloads and the choices behind each metric.
//
// Usage:
//
//	perfbench -workload ring-read -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// config is one workload: exactly one of router and torus is set.
type config struct {
	name   string
	router *routerSpec
	torus  *torusSpec
}

// callers is the number of closed-loop callers (torus-alloc: trial
// workers) that drive every workload from one process: nproc on the
// 2-vCPU machine the benchmark was tuned on. GOMAXPROCS is nproc.
const callers = 2

var workloads = []config{
	{name: "ring-read", router: &routerSpec{
		servers: 1024, preload: 1 << 20,
		readFrac: 0.95, zipf: 1.1, churn: 4096,
		readEvery: 64, writeEvery: 4, traceEvery: 512, setupReps: 5,
	}},
	{name: "geo-write", router: &routerSpec{
		dim: 2, servers: 1024, preload: 1 << 16,
		readFrac: 0.10, durable: true, churn: 4096, walLimit: 16 << 20,
		readEvery: 4, writeEvery: 32, traceEvery: 512, setupReps: 5,
	}},
	{name: "torus-alloc", torus: &torusSpec{
		n: 1 << 16, dim: 2, d: 2,
		probes: 256, readEvery: 2, writeEvery: 2, balance: 256, check: 8,
		traceEvery: 8, setupReps: 11,
	}},
}

// endToEnd and perLayer name every metric the benchmark prints, in the
// order of BENCHMARK.json, with its unit. An untraced run prints every
// end-to-end metric; a traced run every per-layer one, 0 for a call
// its workload never makes.
var endToEnd = []metricDef{
	{"cpu_ns_per_op", "ns"},
	{"read_p50_ns", "ns"},
	{"read_p99_ns", "ns"},
	{"write_p50_ns", "ns"},
	{"write_p99_ns", "ns"},
	{"max_load_ratio", "ratio"},
	{"setup_s", "s"},
	{"heap_mib", "MiB"},
}

var perLayer = []metricDef{
	{"router.locate_ns", "ns"},
	{"router.place_ns", "ns"},
	{"router.remove_ns", "ns"},
	{"router.hash_ns", "ns"},
	{"router.place_residual_ns", "ns"},
	{"router.parallel_speedup", "ratio"},
	{"jump.locate_ns", "ns"},
	{"torus.nearest_ns", "ns"},
	{"torus.nearest_batch_ns_per_query", "ns"},
	{"torus.reseed_ms", "ms"},
	{"core.place_ns_per_ball", "ns"},
	{"sim.trial_ms", "ms"},
	{"journal.append_ns", "ns"},
	{"journal.bytes_per_mutation", "B"},
	{"metrics.hook_ns", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.setup_gc_cycles", "count"},
	{"host.steal_frac", "ratio"},
	{"host.wall_ops_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// report collects what one run measured.
type report struct {
	setup       setupStats
	windows     []phase // the measured windows, or a traced run's phases
	read, write latency
	balance     float64
	layer       map[string]float64
	spans       spanStats
}

// windows is the number of back-to-back windows an untraced run is
// split into; its CPU cost per op is the median over them.
const windows = 30

func (r *report) set(name string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string]float64)
	}
	r.layer[name] = v
}

// runtime records the per-layer figures every traced run has, from its
// untraced base phase and its traced phase.
func (r *report) runtime(base, traced phase) {
	r.set("runtime.allocs_per_op", base.allocsPerOp())
	r.set("runtime.gc_cpu_frac", base.gcCPUFrac)
	r.set("runtime.setup_gc_cycles", float64(r.setup.gcCycles))
	r.set("host.steal_frac", base.stealFrac)
	r.set("host.wall_ops_per_s", base.wallRate())
	r.set("trace.overhead_frac", traced.cpuPerOp()/base.cpuPerOp()-1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics turns a report into the declared metric set.
func (r *report) metrics(traced bool) (map[string]metric, error) {
	var cpu []float64
	for _, w := range r.windows {
		cpu = append(cpu, w.cpuPerOp())
	}
	defs, vals := endToEnd, map[string]float64{
		"cpu_ns_per_op":  median(cpu),
		"read_p50_ns":    r.read.p50,
		"read_p99_ns":    r.read.p99,
		"write_p50_ns":   r.write.p50,
		"write_p99_ns":   r.write.p99,
		"max_load_ratio": r.balance,
		"setup_s":        median(r.setup.seconds),
		"heap_mib":       median(r.setup.heapMiB),
	}
	if traced {
		defs, vals = perLayer, r.layer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func find(name string) (config, bool) {
	for _, c := range workloads {
		if c.name == name {
			return c, true
		}
	}
	return config{}, false
}

// execute runs one workload and returns its result line; diagnostics
// go to diag. Journals and span files go under workdir.
func execute(c config, seed uint64, d time.Duration, traced bool, workdir string, diag io.Writer) (result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	tag := fmt.Sprintf("%s-seed%d", c.name, seed)
	if traced {
		tag += "-traced"
	}
	dir := filepath.Join(workdir, "run", tag+"-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	var (
		r   report
		err error
	)
	if c.router != nil {
		err = runRouter(c.router, seed, d, traced, dir, &r)
	} else {
		err = runTorus(c.torus, seed, d, traced, &r)
	}
	correct := err == nil
	if err != nil {
		fmt.Fprintf(diag, "# check failed: %v\n", err)
	}
	if len(r.windows) == 0 {
		return result{}, fmt.Errorf("%s: %w", c.name, err)
	}
	ms, merr := r.metrics(traced)
	if merr != nil {
		return result{}, merr
	}
	all := total(r.windows)
	fmt.Fprintf(diag, "# %s ops=%d host.wall_ops_per_s=%.0f host.steal_frac=%.4f read_samples=%d (+%d dropped) write_samples=%d (+%d dropped) setup_s=%v\n",
		tag, all.ops, all.wallRate(), all.stealFrac, r.read.n, r.read.dropped, r.write.n, r.write.dropped, r.setup.seconds)
	if traced {
		path := filepath.Join(workdir, "trace", tag+".tsv")
		kept, dropped := r.spans.count()
		if err := r.spans.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(diag, "# spans=%d dropped=%d clock_ns=%.1f file=%s\n", kept, dropped, r.spans.clock, path)
	}
	return result{Correct: correct, Attempted: all.ops, Failed: all.failed, Metrics: ms}, nil
}

func main() {
	os.Exit(run(os.Args[1:], find, os.Stdout, os.Stderr))
}

// run parses the command line, runs the named workload as lookup
// defines it and prints the result line; it returns the exit code.
func run(args []string, lookup func(string) (config, bool), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ring-read, geo-write or torus-alloc")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (ring-read, geo-write, torus-alloc), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	res, err := execute(c, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
