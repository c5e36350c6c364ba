// Package metrics is the repository's live-observability registry: a
// dependency-free (standard library only), allocation-conscious home
// for the counters, gauges, and latency histograms the serving layer
// and the load-test harness export while traffic runs.
//
// The design goals mirror the serving path it instruments:
//
//   - Updates on the hot path are one atomic add on a cache-line-padded
//     counter shard picked by a caller-supplied hint, never a lock, and
//     never an allocation — so a counter increment can sit inside the
//     router's zero-alloc guarded Place/Locate paths.
//   - Instrumentation is OPTIONAL and nil-checked at the call site:
//     packages hold a pointer to their metric set and skip the update
//     when it is nil, so a router without metrics attached pays one
//     predictable branch, nothing else. Scrape-time work (folding
//     shards, merging histograms, formatting) may allocate freely.
//   - Output is pull-based and comes in the two lingua francas:
//     WriteExpvar emits one expvar-style JSON object (the /debug/vars
//     shape), WritePrometheus emits Prometheus text exposition format
//     (version 0.0.4), and Registry itself is an http.Handler serving
//     both (see handler.go). Both renderings are deterministic —
//     metrics sorted by name — so they can be golden-tested.
//
// Histograms reuse internal/stats.LatencyHist (HDR-style log-bucketed
// quantiles) behind a striped mutex, since LatencyHist itself is
// single-writer by design.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"geobalance/internal/stats"
)

// shardCount is the number of cache-line-padded shards per counter.
// Hot-path callers pass a shard hint (a key hash, a worker index) so
// concurrent updates from different goroutines usually land on
// different cache lines; Value folds the shards on demand.
const shardCount = 8

// countShard is one padded counter shard.
type countShard struct {
	n atomic.Int64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotonically increasing sharded counter. The zero
// value is ready to use; all methods are safe for concurrent use and
// never allocate.
type Counter struct {
	shards [shardCount]countShard
}

// Inc adds 1 to the shard selected by the low bits of hint. Callers on
// hot paths should pass something already in hand that varies across
// goroutines — a key hash, a worker index; a constant merely
// serializes the adds on one line, it is never wrong.
func (c *Counter) Inc(hint uint64) { c.shards[hint&(shardCount-1)].n.Add(1) }

// Add adds delta (>= 0) to the shard selected by hint.
func (c *Counter) Add(hint uint64, delta int64) {
	c.shards[hint&(shardCount-1)].n.Add(delta)
}

// Value folds the shards into the current total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].n.Load()
	}
	return t
}

// Gauge is an instantaneous int64 value (a level, not a rate). The
// zero value is ready to use; all methods are safe for concurrent use
// and never allocate.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histShard is one striped histogram shard. The stats.LatencyHist
// dominates the struct (~8 KB), so neighboring shards' mutexes never
// share a cache line without explicit padding.
type histShard struct {
	mu sync.Mutex
	h  stats.LatencyHist
}

// Histogram records non-negative int64 samples (latencies in
// nanoseconds, sizes, lags) into HDR-style log buckets with bounded
// relative quantile error (see stats.LatencyHist). Observe takes one
// short critical section on a shard striped by the sample value, so
// concurrent recorders rarely contend; Snapshot merges the stripes.
// The zero value is ready to use. Observe never allocates.
type Histogram struct {
	shards [shardCount]histShard
}

// mix64 is the SplitMix64 finalizer — full-avalanche diffusion so
// nearby sample values stripe to different shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Observe records one sample (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	s := &h.shards[mix64(uint64(v))&(shardCount-1)]
	s.mu.Lock()
	s.h.Add(v)
	s.mu.Unlock()
}

// Snapshot merges the stripes into one consistent-enough histogram
// value (stripes are locked one at a time; samples recorded during the
// snapshot may or may not be included — the usual scrape semantics).
func (h *Histogram) Snapshot() stats.LatencyHist {
	var out stats.LatencyHist
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		out.Merge(&s.h)
		s.mu.Unlock()
	}
	return out
}

// metricKind discriminates the registry's metric union.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindGaugeVec
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVec:
		return "gauge"
	case kindHistogram:
		return "summary"
	}
	return "untyped"
}

// metric is one registered entry.
type metric struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
	label   string
	collect func(emit func(labelValue string, v float64))
}

// Registry is a named collection of metrics with deterministic
// (name-sorted) expvar-JSON and Prometheus-text renderings. Metric
// constructors are idempotent: asking for an existing name of the same
// kind returns the existing instrument, so two subsystems can share a
// registry without coordination. Registering an existing name as a
// DIFFERENT kind panics — that is a programming error, not a runtime
// condition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// validName reports whether name is a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register inserts or retrieves a metric, enforcing name validity and
// kind consistency. Collector-style metrics (funcs, vecs) are
// re-bindable: registering the same name replaces the callback, so a
// harness that builds a fresh router per run can re-point the
// collector at it.
func (r *Registry) register(name, help string, kind metricKind) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(name, help, kindHistogram)
	if m.hist == nil {
		m.hist = &Histogram{}
	}
	return m.hist
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the name replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, kindGaugeFunc)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// GaugeVec registers a labeled gauge family collected at scrape time:
// collect is called with an emit function and must emit one sample per
// label value (e.g. one load per live server). Re-registering the name
// replaces the callback; label is the label NAME shared by every
// sample.
func (r *Registry) GaugeVec(name, help, label string, collect func(emit func(labelValue string, v float64))) {
	m := r.register(name, help, kindGaugeVec)
	r.mu.Lock()
	m.label = label
	m.collect = collect
	r.mu.Unlock()
}

// snapshot returns the registered metrics sorted by name. The metric
// structs themselves are append-only after registration, so reading
// them outside the lock is safe.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// quantiles are the summary quantiles both output formats report.
var quantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999},
}
