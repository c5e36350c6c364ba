package loadgen

import (
	"strings"
	"testing"
	"time"

	"geobalance/internal/rng"
)

func TestParseCapacities(t *testing.T) {
	classes, err := ParseCapacities("4:0.1, 1:0.9")
	if err != nil {
		t.Fatal(err)
	}
	want := []CapacityClass{{Cap: 4, Frac: 0.1}, {Cap: 1, Frac: 0.9}}
	if len(classes) != len(want) {
		t.Fatalf("parsed %d bands, want %d", len(classes), len(want))
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Errorf("band %d = %+v, want %+v", i, classes[i], want[i])
		}
	}
	if c, err := ParseCapacities("  "); err != nil || c != nil {
		t.Errorf("blank spec = %v, %v; want nil, nil", c, err)
	}
	for _, bad := range []string{
		"4",           // no fraction
		"x:0.5",       // bad capacity
		"0:0.5",       // zero capacity
		"-1:0.5",      // negative capacity
		"4:junk",      // bad fraction
		"4:0",         // zero fraction
		"4:1.5",       // fraction over 1
		"4:0.6,1:0.6", // fractions sum past 1
		"4:0.5junk",   // trailing garbage in fraction
		"4junk:0.5",   // trailing garbage in capacity
		"Inf:0.5",     // non-finite capacity
	} {
		if _, err := ParseCapacities(bad); err == nil {
			t.Errorf("capacity spec %q accepted", bad)
		}
	}
}

// TestParseFailureScriptStrict pins the strict-parsing fix: fractions
// with trailing garbage and scripts that could never fire must be
// loud errors, not silently absorbed.
func TestParseFailureScriptStrict(t *testing.T) {
	for _, bad := range []string{
		"crash@100ms:0.5junk", // trailing garbage after the fraction
		"crash@100ms:.5.5",    // double decimal
		"crash@100ms:NaN",     // NaN fraction
		"crash@100ms:+Inf",    // infinite fraction
		"crash@100ms:1e300",   // absurd fraction, out of (0,1)
	} {
		if script, err := ParseFailureScript(bad); err == nil {
			t.Errorf("script %q accepted as %+v", bad, script)
		}
	}
	// The cascade kind parses like the others.
	script, err := ParseFailureScript("cascade@50ms:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(script) != 1 || script[0].Kind != FailCascade || script[0].Frac != 0.25 {
		t.Fatalf("cascade parsed as %+v", script)
	}
	// An event at or past the run horizon would never fire: Run must
	// reject the config instead of running a weaker scenario than asked.
	_, err = Run(Config{
		Servers: 8, Workers: 1, Keys: 64, Duration: 50 * time.Millisecond,
		Failures: FailureScript{{After: 50 * time.Millisecond, Kind: FailCrash, Frac: 0.1}},
	})
	if err == nil || !strings.Contains(err.Error(), "never fire") {
		t.Errorf("past-horizon failure accepted: %v", err)
	}
}

func TestBackoffBounds(t *testing.T) {
	r := rng.NewStream(7, 0)
	base, cap := time.Millisecond, 16*time.Millisecond
	for attempt := 1; attempt <= 12; attempt++ {
		for i := 0; i < 100; i++ {
			hint := time.Duration(i%3) * time.Millisecond
			d := backoff(r, attempt, base, cap, hint)
			if d < hint {
				t.Fatalf("attempt %d: backoff %v below hint %v", attempt, d, hint)
			}
			ceil := base << uint(attempt-1)
			if ceil > cap || ceil <= 0 {
				ceil = cap
			}
			if hint <= ceil && d > ceil {
				t.Fatalf("attempt %d: backoff %v above ceiling %v", attempt, d, ceil)
			}
		}
	}
}

func TestServiceModelQueues(t *testing.T) {
	m := newServiceModel(1000, map[string]float64{"a": 1, "slow": 0.1}, time.Now())
	r := rng.NewStream(3, 0)
	var aTotal, slowTotal time.Duration
	for i := 0; i < 200; i++ {
		aTotal += m.observe("a", r)
		slowTotal += m.observe("slow", r)
	}
	// 200 ops in near-zero wall time: the fast server's queue holds
	// ~200ms of virtual work, the 10x-slower one ~2s.
	if slowTotal < 4*aTotal {
		t.Errorf("slow server sojourn total %v not clearly above fast server %v", slowTotal, aTotal)
	}
	if b := m.backlog("slow"); b < 500*time.Millisecond {
		t.Errorf("slow server backlog %v; want a deep virtual queue", b)
	}
	worst, deepest := m.maxBacklog()
	if worst != "slow" || deepest == 0 {
		t.Errorf("maxBacklog = %s, %v; want slow with a nonzero queue", worst, deepest)
	}
	// A capacity slash re-rates the queue live.
	m.setCapacity("a", 0.01)
	if soj := m.observe("a", r); soj == 0 {
		t.Error("observe after slash returned zero sojourn")
	}
}

// slashedLoads returns each browned-out server's final key count,
// plus the maximum over them, for a finished cascade run.
func slashedLoads(t *testing.T, res *Result) (map[string]int64, int64) {
	t.Helper()
	if len(res.Failures) != 1 || len(res.Failures[0].Slowed) == 0 {
		t.Fatalf("cascade outcome missing: %+v", res.Failures)
	}
	loads := make(map[string]int64)
	res.Router.LoadsInto(loads)
	out := make(map[string]int64, len(res.Failures[0].Slowed))
	var max int64
	for _, name := range res.Failures[0].Slowed {
		out[name] = loads[name]
		if loads[name] > max {
			max = loads[name]
		}
	}
	return out, max
}

// TestCascadeBoundedVsUnbounded is the overload lab in miniature: the
// same torus fleet, write-heavy traffic, and a cascade brownout of a
// third of the fleet — once with bounded-load admission plus client
// retries, once wide open. The readout is per-server, on the
// browned-out servers themselves: both routers steer NEW placements by
// capacity-relative d-choice, but only admission can refuse the keys
// whose every candidate landed in the browned-out zone — so without it
// those servers keep absorbing keys at a tenth the capacity, and with
// it they freeze near their pre-cascade load while the refused ops
// surface as visible back-pressure (rejections, retries, shed).
func TestCascadeBoundedVsUnbounded(t *testing.T) {
	// Both runs do a fixed amount of work rather than run for a fixed
	// time: the snowball needs placements after the cascade, and a time
	// window gets ~15× fewer under the race detector, so the budget is
	// cut there only to keep the test within seconds.
	ops := int64(600000)
	if raceEnabled {
		ops = 60000
	}
	// Choices > KeyReplicas so admission needs only 2-of-3 candidates
	// under the threshold; with d == R a single saturated candidate
	// vetoes the whole placement and the run over-sheds.
	base := Config{
		Space: "torus", Dim: 2, Servers: 24, Choices: 3, KeyReplicas: 2,
		Workers: 4, Ops: ops, Keys: 64,
		LookupFrac: 0.3, Dist: "zipf", Seed: 21,
		ServiceRate: 20000,
		Failures: FailureScript{
			// Early slash: load frozen on the browned-out servers before
			// the event is noise in the comparison (admission cannot
			// shrink it), so the cascade fires soon after the preload.
			{After: time.Millisecond, Kind: FailCascade, Frac: 0.3},
		},
	}

	bounded := base
	bounded.BoundedLoad = 1.5
	bounded.Retries = 3
	bounded.RetryBase = 500 * time.Microsecond
	bounded.RetryCap = 8 * time.Millisecond
	bounded.HedgeAfter = 2 * time.Millisecond
	protected, err := Run(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if protected.Errors != 0 {
		t.Fatalf("%d harness errors in the protected run", protected.Errors)
	}
	if len(protected.Failures) != 1 {
		t.Fatal("the cascade never fired in the protected run")
	}
	if protected.LostKeys != 0 {
		t.Fatalf("%d keys lost in the protected run", protected.LostKeys)
	}
	if protected.Rejections == 0 {
		t.Fatal("no overload rejections despite a cascade under bounded load")
	}
	if protected.Retries == 0 {
		t.Fatal("rejections happened but the client never retried")
	}
	if protected.Shed+protected.Recovered == 0 {
		t.Fatal("rejections neither shed nor recovered — ops vanished")
	}
	if protected.Sojourn.N() == 0 {
		t.Fatal("service model attached but no sojourns recorded")
	}
	if err := protected.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	open, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if open.Rejections != 0 || open.Shed != 0 {
		t.Fatalf("unbounded run rejected %d / shed %d ops", open.Rejections, open.Shed)
	}
	if len(open.Failures) != 1 {
		t.Fatal("the cascade never fired in the unbounded run")
	}

	// Per-server comparison on the browned-out zone. Admission freezes a
	// slashed server's load near where the cascade caught it: at 0.1
	// capacity its threshold ceil(c·(m+1)·cap/capSum) rounds to a couple
	// of keys, so post-cascade growth is a handful at most. Wide open,
	// the same servers keep taking every placement whose d-choice ties
	// break their way and end far past that.
	_, boundedMax := slashedLoads(t, protected)
	_, openMax := slashedLoads(t, open)
	if boundedMax > 16 {
		t.Errorf("bounded run let a browned-out server reach %d keys; admission should have frozen it", boundedMax)
	}
	if openMax < 2*boundedMax || openMax < 20 {
		t.Errorf("snowball not visible: unbounded worst slashed server %d keys vs bounded %d", openMax, boundedMax)
	}
	// Fleet-level view of the same fact: the unbounded run's worst
	// relative load blows far past c times its own capacity-relative
	// mean; the bounded run's overshoot is only the frozen pre-cascade
	// keys sitting on 0.1-capacity slots.
	c := bounded.BoundedLoad
	if open.MaxRelLoad < 2*c*open.Router.MeanRelLoad() {
		t.Errorf("unbounded max relative load %.1f not clearly past c·mean %.1f",
			open.MaxRelLoad, c*open.Router.MeanRelLoad())
	}
	t.Logf("bounded: slashed max %d keys, rejected %d, retries %d, recovered %d, shed %d, hedges %d, breakers %d",
		boundedMax, protected.Rejections, protected.Retries,
		protected.Recovered, protected.Shed, protected.Hedges, protected.BreakerOpens)
	t.Logf("unbounded: slashed max %d keys, maxRel %.1f vs mean %.1f, deepest queue %v on %s",
		openMax, open.MaxRelLoad, open.Router.MeanRelLoad(), open.MaxBacklog, open.WorstQueue)
}

// TestOpenLoopShedAccounting pins the coordinated-omission discipline:
// in an open-loop run every scheduled arrival is accounted for — it
// either completed (Ops) or was shed (Shed); none vanish.
func TestOpenLoopShedAccounting(t *testing.T) {
	sched, err := ConstantRate(20000, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 16, Choices: 2, Workers: 4,
		Keys: 1 << 9, LookupFrac: 0.2, Seed: 31, Arrivals: sched,
		BoundedLoad: 1.1, Retries: 1, RetryBase: 200 * time.Microsecond,
		RetryCap: time.Millisecond,
		Failures: FailureScript{
			{After: 50 * time.Millisecond, Kind: FailCascade, Frac: 0.3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops+res.Shed != res.Offered {
		t.Fatalf("arrivals leak: ops %d + shed %d != offered %d", res.Ops, res.Shed, res.Offered)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost", res.LostKeys)
	}
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Report(&sb)
	if res.Shed > 0 && !strings.Contains(sb.String(), "goodput:") {
		t.Errorf("report with shed ops missing goodput line:\n%s", sb.String())
	}
}
