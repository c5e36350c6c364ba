package loadgen

import (
	"math"
	"strings"
	"testing"
	"time"

	"geobalance/internal/metrics"
)

func TestConstantRateSchedule(t *testing.T) {
	s, err := ConstantRate(1000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Total(); got != 2000 {
		t.Fatalf("Total = %d, want 2000", got)
	}
	if got := s.Duration(); got != 2*time.Second {
		t.Fatalf("Duration = %v, want 2s", got)
	}
	// Constant rate: arrival k is due at exactly k/rate.
	for _, k := range []int64{0, 1, 999, 1999} {
		want := time.Duration(float64(k) / 1000 * float64(time.Second))
		if got := s.TimeOf(k); got < want-time.Microsecond || got > want+time.Microsecond {
			t.Errorf("TimeOf(%d) = %v, want %v", k, got, want)
		}
	}
	if got := s.TimeOf(5000); got != 2*time.Second {
		t.Errorf("TimeOf past total = %v, want clamp to 2s", got)
	}
}

func TestRampSchedule(t *testing.T) {
	s, err := Ramp(0, 2000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Mean rate 1000/s for 1s.
	if got := s.Total(); got != 1000 {
		t.Fatalf("Total = %d, want 1000", got)
	}
	// Cumulative arrivals under a 0->r ramp grow as t^2: the halfway
	// arrival (k=250 of 1000) is due at t = sqrt(1/4) = 0.5... of the
	// quarter point: cum(t) = r t^2 / (2 dur), cum^-1(250) = sqrt(0.25).
	want := time.Duration(math.Sqrt(0.25) * float64(time.Second))
	if got := s.TimeOf(250); got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("TimeOf(250) = %v, want ~%v", got, want)
	}
	// Monotone throughout.
	prev := time.Duration(-1)
	for k := int64(0); k < 1000; k += 7 {
		got := s.TimeOf(k)
		if got < prev {
			t.Fatalf("TimeOf not monotone at k=%d: %v < %v", k, got, prev)
		}
		prev = got
	}
}

func TestSpikeSchedule(t *testing.T) {
	s, err := Spike(1000, 10, time.Second, time.Second, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 1s at 1000 + 1s at 10000 + 1s at 1000.
	if got := s.Total(); got != 12000 {
		t.Fatalf("Total = %d, want 12000", got)
	}
	// Arrival 1000 opens the spike window; arrival 11000 closes it.
	if got := s.TimeOf(1000); got < time.Second-time.Millisecond || got > time.Second+time.Millisecond {
		t.Errorf("spike start at %v, want ~1s", got)
	}
	if got := s.TimeOf(11000); got < 2*time.Second-time.Millisecond || got > 2*time.Second+time.Millisecond {
		t.Errorf("spike end at %v, want ~2s", got)
	}
	if _, err := Spike(1000, 10, 2*time.Second, 2*time.Second, 3*time.Second); err == nil {
		t.Error("spike window past the run duration did not error")
	}
}

func TestDeceleratingRampExact(t *testing.T) {
	// A falling ramp exercises the a < 0 branch of the quadratic: the
	// final arrival must land exactly at the end of the segment.
	s, err := Ramp(2000, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Total(); got != 1000 {
		t.Fatalf("Total = %d, want 1000", got)
	}
	if got := s.TimeOf(999); got > time.Second {
		t.Errorf("TimeOf(last) = %v, beyond the schedule", got)
	}
	prev := time.Duration(-1)
	for k := int64(0); k < 1000; k++ {
		got := s.TimeOf(k)
		if got < prev {
			t.Fatalf("TimeOf not monotone at k=%d", k)
		}
		prev = got
	}
}

func TestParseArrivals(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		total int64
	}{
		{"const:1000", 5000},            // 1000/s x 5s default duration
		{"const", 25000},                // default 5000/s
		{"ramp:0-2000", 5000},           // mean 1000/s x 5s
		{"spike:100x10@1s+1s", 1400},    // 4s x 100 + 1s x 1000
		{"trace:100@1s,1000@1s", 1100},  // piecewise
		{"trace:500@500ms,500@1s", 750}, // sub-second durations
	} {
		s, err := ParseArrivals(tc.spec, 5*time.Second)
		if err != nil {
			t.Errorf("ParseArrivals(%q): %v", tc.spec, err)
			continue
		}
		if got := s.Total(); got != tc.total {
			t.Errorf("ParseArrivals(%q).Total() = %d, want %d", tc.spec, got, tc.total)
		}
	}
	for _, bad := range []string{
		"", "poisson:100", "const:x", "ramp:5", "spike:100", "trace:", "trace:1s@100",
	} {
		if _, err := ParseArrivals(bad, time.Second); err == nil {
			t.Errorf("ParseArrivals(%q) did not error", bad)
		}
	}
}

// TestOpenLoopRateAccuracy pins the open-loop contract: a run against
// a constant-rate schedule issues every scheduled arrival and takes
// roughly the scheduled wall-clock time (not as fast as the router can
// go, which would be orders of magnitude quicker).
func TestOpenLoopRateAccuracy(t *testing.T) {
	sched, err := ConstantRate(4000, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Arrivals: sched, Servers: 16, Workers: 4, Keys: 512,
		LookupFrac: 0.9, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != sched.Total() {
		t.Errorf("issued %d ops, schedule offered %d", res.Ops, sched.Total())
	}
	if res.Offered != sched.Total() {
		t.Errorf("Offered = %d, want %d", res.Offered, sched.Total())
	}
	// The run must take at least the schedule length (pacing is real)
	// and not wildly more (a paced run on an idle machine keeps up; the
	// generous upper bound absorbs CI noise).
	if res.Elapsed < 450*time.Millisecond {
		t.Errorf("run finished in %v — pacing not applied (schedule is 500ms)", res.Elapsed)
	}
	if res.Elapsed > 3*time.Second {
		t.Errorf("run took %v against a 500ms schedule", res.Elapsed)
	}
	if res.Lag.N() != res.Ops {
		t.Errorf("lag recorded for %d of %d ops", res.Lag.N(), res.Ops)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoopInstrumented runs a spike schedule with a registry
// attached and checks the loadgen_* and router_* instruments agree
// with the result tallies.
func TestOpenLoopInstrumented(t *testing.T) {
	sched, err := ParseArrivals("spike:2000x4@100ms+100ms", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	res, err := Run(Config{
		Arrivals: sched, Registry: reg,
		Space: "torus", Servers: 32, Workers: 4, Keys: 512,
		Choices: 3, KeyReplicas: 2, LookupFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLoadMetrics(reg) // idempotent: returns the run's instruments
	if got := lm.Lookups.Value(); got != res.Lookups {
		t.Errorf("loadgen_lookups_total = %d, result says %d", got, res.Lookups)
	}
	if got := lm.Places.Value(); got != res.Places {
		t.Errorf("loadgen_places_total = %d, result says %d", got, res.Places)
	}
	if got := lm.Workers.Value(); got != 4 {
		t.Errorf("loadgen_workers = %d, want 4", got)
	}
	if s := lm.Lag.Snapshot(); s.N() != res.Ops {
		t.Errorf("loadgen_lag_ns has %d samples, want %d", s.N(), res.Ops)
	}
	// The router's own counters saw the same traffic (plus the preload
	// and the post-run audit reads).
	routerLookups := reg.Counter("router_locates_total", "")
	if got := routerLookups.Value(); got < res.Lookups {
		t.Errorf("router_locates_total = %d, below harness count %d", got, res.Lookups)
	}
	// The run had no journal, so it exports no journal_* series.
	var dump strings.Builder
	reg.WritePrometheus(&dump)
	if strings.Contains(dump.String(), "journal_") {
		t.Errorf("a run without a journal exports journal_* series:\n%s", dump.String())
	}
}
