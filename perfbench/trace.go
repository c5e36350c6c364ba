package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// spanName identifies the layer call a span times.
type spanName uint8

const (
	spOp spanName = iota // one sampled operation: the parent of its calls
	spHash
	spJump
	spNearest
	spNearestBatch
	spAppend
	spLocate
	spPlace
	spRemove
	spReseed
	spReset
	spPlaceN
	spTrial
)

var spanNames = [...]string{
	spOp:           "op",
	spHash:         "router.Hash",
	spJump:         "jump.Index.Locate",
	spNearest:      "torus.Space.Nearest",
	spNearestBatch: "torus.Space.NearestBatchInto",
	spAppend:       "journal.Log.Append",
	spLocate:       "router.Locate",
	spPlace:        "router.Place",
	spRemove:       "router.Remove",
	spReseed:       "torus.Space.Reseed",
	spReset:        "core.Allocator.Reset",
	spPlaceN:       "core.Allocator.PlaceN",
	spTrial:        "sim.TorusTrialPooled",
}

// span is one timed call. Spans of one sampled operation share op; a
// child's parent is the index of the operation's root span.
type span struct {
	start, end int64
	op         uint64
	parent     int32 // -1 for a root
	n          int32 // queries or balls the call handled
	name       spanName
	phase      uint8
}

// tracer keeps one caller's spans in a preallocated buffer; spans past
// its capacity are dropped and counted.
type tracer struct {
	spans   []span
	dropped int64
	phase   uint8
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

// begin opens the root span of sampled operation op; -1 when full.
func (t *tracer) begin(op uint64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: now(), op: op, parent: -1, n: 1, phase: t.phase})
	return int32(len(t.spans) - 1)
}

// end closes a root span opened by begin.
func (t *tracer) end(root int32) {
	if root >= 0 {
		t.spans[root].end = now()
	}
}

// rec records a call of the given layer that started at start and
// returned just now, as a child of root.
func (t *tracer) rec(name spanName, root int32, n int, start int64) {
	end := now()
	if root < 0 || len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		start: start, end: end, op: t.spans[root].op, parent: root,
		n: int32(n), name: name, phase: t.phase,
	})
}

// clockCost is the median duration of an empty span: the two clock
// reads every span pays, subtracted from the per-call figures.
func clockCost() float64 {
	d := make([]float64, 4096)
	for i := range d {
		t0 := now()
		d[i] = float64(now() - t0)
	}
	return median(d)
}

// spanStats aggregates the spans of every caller of one traced run.
type spanStats struct {
	tracers []*tracer
	clock   float64
}

// perCall returns the median over spans of the given name and phase
// of (duration - clock cost) / n: the cost of one query or ball of the
// call. It is 0 when the run made no such call.
func (s spanStats) perCall(name spanName, phase uint8) float64 {
	var xs []float64
	for _, t := range s.tracers {
		for _, sp := range t.spans {
			if sp.name == name && sp.phase == phase && sp.end > 0 {
				xs = append(xs, (float64(sp.end-sp.start)-s.clock)/float64(sp.n))
			}
		}
	}
	return median(xs)
}

func (s spanStats) count() (kept, dropped int64) {
	for _, t := range s.tracers {
		kept += int64(len(t.spans))
		dropped += t.dropped
	}
	return kept, dropped
}

// write saves every span as a tab-separated line: id, parent id, op,
// phase, layer call, n, start and end in ns since process start.
func (s spanStats) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tphase\tcall\tn\tstart_ns\tend_ns")
	base := int32(0)
	for _, t := range s.tracers {
		for i, sp := range t.spans {
			parent := int32(-1)
			if sp.parent >= 0 {
				parent = base + sp.parent
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n",
				base+int32(i), parent, sp.op, sp.phase, spanNames[sp.name], sp.n, sp.start, sp.end)
		}
		base += int32(len(t.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
