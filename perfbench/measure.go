package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// epoch anchors now: every timestamp the benchmark takes is monotonic
// nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// worker is one closed-loop caller: run issues operations, each after
// the previous one returned, until the monotonic deadline passes.
// tally reports the operations attempted and failed so far.
type worker interface {
	run(deadline int64)
	tally() (ops, failed int64)
}

// usage is one reading of the process and host counters a phase is
// measured by.
type usage struct {
	wall         int64
	cpu          time.Duration // process user+sys, every thread
	steal, total uint64        // /proc/stat jiffies over all CPUs
	mallocs      uint64
	gcCPU, cpuS  float64 // runtime/metrics CPU-class estimates, seconds
}

var cpuClasses = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() (usage, error) {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var err error
	if u.steal, u.total, err = readStat(); err != nil {
		return u, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	rtmetrics.Read(cpuClasses)
	u.gcCPU, u.cpuS = cpuClasses[0].Value.Float64(), cpuClasses[1].Value.Float64()
	u.wall = now()
	return u, nil
}

// readStat returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat (user nice system idle iowait irq softirq steal;
// guest time is already inside user).
func readStat() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("steal accounting: %w", err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if err != nil || len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("steal accounting: unexpected /proc/stat line %q", line)
	}
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("steal accounting: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// phase is the outcome of one measured window.
type phase struct {
	ops, failed int64
	wall, cpu   time.Duration
	stealFrac   float64
	mallocs     uint64
	gcCPUFrac   float64
}

func (p phase) cpuPerOp() float64    { return float64(p.cpu) / float64(p.ops) }
func (p phase) wallRate() float64    { return float64(p.ops) / p.wall.Seconds() }
func (p phase) allocsPerOp() float64 { return float64(p.mallocs) / float64(p.ops) }

// measure runs every worker concurrently for d, split into k
// windows, and returns each window's readings, taken around the window
// only. Set-up garbage is collected first so that it is not charged to
// the run. between, if set, runs after every window but the last,
// outside the readings.
func measure(ws []worker, d time.Duration, k int, between func() error) ([]phase, error) {
	runtime.GC()
	out := make([]phase, k)
	for i := range out {
		if i > 0 && between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		p, err := window(ws, d/time.Duration(k))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// measure1 runs the workers for d and folds the readings into one
// phase. With between set, d is cut into windows of about a second and
// between runs after each.
func measure1(ws []worker, d time.Duration, between func() error) (phase, error) {
	k := 1
	if between != nil {
		k = max(1, int((d+time.Second/2)/time.Second))
	}
	ps, err := measure(ws, d, k, between)
	if err != nil {
		return phase{}, err
	}
	return total(ps), nil
}

func window(ws []worker, d time.Duration) (phase, error) {
	var ops0, failed0 int64
	for _, w := range ws {
		o, f := w.tally()
		ops0, failed0 = ops0+o, failed0+f
	}
	before, err := readUsage()
	if err != nil {
		return phase{}, err
	}
	deadline := now() + int64(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			w.run(deadline)
		}(w)
	}
	wg.Wait()
	after, err := readUsage()
	if err != nil {
		return phase{}, err
	}
	p := phase{
		wall:    time.Duration(after.wall - before.wall),
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
	}
	for _, w := range ws {
		o, f := w.tally()
		p.ops, p.failed = p.ops+o, p.failed+f
	}
	p.ops, p.failed = p.ops-ops0, p.failed-failed0
	if p.ops == 0 {
		return p, fmt.Errorf("no operation completed in %v", d)
	}
	if dt := after.total - before.total; dt > 0 {
		p.stealFrac = float64(after.steal-before.steal) / float64(dt)
	}
	if dc := after.cpuS - before.cpuS; dc > 0 {
		p.gcCPUFrac = (after.gcCPU - before.gcCPU) / dc
	}
	return p, nil
}

// total folds windows into one phase.
func total(ps []phase) phase {
	var t phase
	var steal, gc float64
	for _, p := range ps {
		t.ops += p.ops
		t.failed += p.failed
		t.wall += p.wall
		t.cpu += p.cpu
		t.mallocs += p.mallocs
		steal += p.stealFrac * p.wall.Seconds()
		gc += p.gcCPUFrac * p.cpu.Seconds()
	}
	t.stealFrac = steal / t.wall.Seconds()
	if t.cpu > 0 {
		t.gcCPUFrac = gc / t.cpu.Seconds()
	}
	return t
}

// samples is a preallocated buffer of latencies in nanoseconds; once
// it is full further samples are dropped and counted.
type samples struct {
	ns      []uint32
	dropped int64
}

func newSamples(n int) samples { return samples{ns: make([]uint32, 0, n)} }

func (s *samples) add(d int64) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	s.ns = append(s.ns, uint32(min(d, 1<<32-1)))
}

// latency is the summary of one kind of call's samples.
type latency struct {
	p50, p99 float64
	n        int
	dropped  int64
}

// quantiles merges the callers' samples and returns their exact p50
// and p99 (nearest-rank order statistics) and the sample counts.
func quantiles(parts []*samples) latency {
	var (
		all []uint32
		l   latency
	)
	for _, s := range parts {
		all = append(all, s.ns...)
		l.dropped += s.dropped
	}
	if l.n = len(all); l.n == 0 {
		return l
	}
	slices.Sort(all)
	rank := func(q float64) float64 {
		return float64(all[int(math.Ceil(q*float64(len(all))))-1])
	}
	l.p50, l.p99 = rank(0.50), rank(0.99)
	return l
}

// heapInUse returns the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcCycles returns the number of garbage collections the runtime
// started on its own (forced ones excluded).
func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC - ms.NumForcedGC
}

// setupStats are the per-build readings of a run's set-up.
type setupStats struct {
	seconds, heapMiB []float64
	gcCycles         uint32 // of the last build
}

// timeSetup runs build reps times, releasing each result but the last,
// and records the wall time, live-heap growth and runtime-started GC
// cycles of each build. Inputs the build reads are made beforehand.
func timeSetup[T any](reps int, build func() (T, error), release func(T)) (T, setupStats, error) {
	var (
		st  setupStats
		out T
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(out)
			var zero T
			out = zero // let the previous build be collected before the baseline
		}
		h0 := heapInUse()
		g0 := gcCycles()
		t0 := now()
		v, err := build()
		t1 := now()
		if err != nil {
			return out, st, err
		}
		g1 := gcCycles()
		h1 := heapInUse()
		out = v
		st.seconds = append(st.seconds, float64(t1-t0)/1e9)
		st.heapMiB = append(st.heapMiB, (float64(h1)-float64(h0))/(1<<20))
		st.gcCycles = g1 - g0
	}
	return out, st, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
