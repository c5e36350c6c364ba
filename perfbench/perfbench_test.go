package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"

	"geobalance/internal/journal"
	"geobalance/internal/router"
)

// tiny shrinks a workload to test size; the code paths are the same.
func tiny(c config) config {
	if c.router != nil {
		r := *c.router
		r.servers, r.preload, r.churn, r.setupReps = 64, 4096, 256, 1
		r.walLimit = 1
		r.traceEvery = min(r.traceEvery, 4)
		c.router = &r
	} else {
		t := *c.torus
		t.n, t.probes, t.balance, t.setupReps, t.traceEvery = 1<<10, 16, 8, 1, 1
		c.torus = &t
	}
	return c
}

func tinyFind(name string) (config, bool) {
	c, ok := find(name)
	if !ok {
		return c, false
	}
	return tiny(c), true
}

// benchmarkFile is BENCHMARK.json, which sits at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFile checks BENCHMARK.json against the benchmark's own
// tables: the same workloads and metrics, well-formed names and units,
// bounds within 0.25 and set-up time declared.
func TestBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or repeated", kind, name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		check("workload", w.Name)
		if _, ok := find(w.Name); !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q unknown or its why is empty or too long", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark prints %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		check("metric", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	for i, m := range bf.PerLayer {
		check("metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks the format of the printed result line.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		for _, traced := range []int{0, 1} {
			want := map[string]string{}
			if traced == 0 {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var out, errOut bytes.Buffer
			args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "0.3",
				"--trace", strconv.Itoa(traced), "--workdir", t.TempDir()}
			if code := run(args, tinyFind, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", wl.Name, traced, code, out.String(), errOut.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			last := lines[len(lines)-1]
			var top map[string]json.RawMessage
			if err := json.Unmarshal(last, &top); err != nil {
				t.Fatalf("%s trace=%d: last line %q: %v", wl.Name, traced, last, err)
			}
			if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
				t.Fatalf("%s trace=%d: keys of %s", wl.Name, traced, last)
			}
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]map[string]any
			}
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				v, ok := m["value"].(float64)
				if !nameRE.MatchString(name) || len(m) != 2 || m["unit"] != want[name] || !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%d: metric %q = %v, want unit %q and a finite value", wl.Name, traced, name, m, want[name])
				}
				if traced == 0 && v == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, name)
				}
			}
		}
	}
}

// TestGeoWriteJournalRecovers replays a geo-write run's journal, which
// was compacted between its windows, with router.RecoverGeo: the
// recovered router holds the same keys and passes its invariants.
func TestGeoWriteJournalRecovers(t *testing.T) {
	c, _ := find("geo-write")
	s := tiny(c).router
	dir := t.TempDir()
	b := newRouterBench(s, 3, dir)
	tg, err := b.build()
	if err != nil {
		t.Fatal(err)
	}
	b.tg = tg
	if _, err := measure(b.workers(callers), 400*time.Millisecond, 4, b.trim); err != nil {
		t.Fatal(err)
	}
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
	if b.mutations() == 0 || b.walFolded == 0 {
		t.Fatalf("run made %d journaled mutations, compaction folded %d WAL bytes", b.mutations(), b.walFolded)
	}
	if err := tg.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	g, rec, err := router.RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Journal().Close()
	if rec.TruncatedBytes != 0 || g.NumKeys() != tg.NumKeys() {
		t.Fatalf("recovered %d keys (%d bytes truncated), router held %d", g.NumKeys(), rec.TruncatedBytes, tg.NumKeys())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
