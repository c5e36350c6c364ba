package loadgen

import (
	"strings"
	"testing"
	"time"

	"geobalance/internal/metrics"
)

// TestKillRecoveryTorus is the durability acceptance scenario: a
// journaled torus run loses some servers to a crash, then the whole
// router dies and is rebuilt from its journal mid-traffic. The run must
// finish with zero harness errors and zero lost keys, and the recovery
// must actually have replayed the pre-kill mutations.
func TestKillRecoveryTorus(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 24, Choices: 3, KeyReplicas: 2,
		Workers: 4, Duration: 400 * time.Millisecond, Keys: 1 << 9,
		LookupFrac: 0.7, Dist: "zipf", Seed: 21,
		JournalDir: t.TempDir(), Registry: reg,
		Failures: FailureScript{
			{After: 60 * time.Millisecond, Kind: FailCrash, Frac: 0.1},
			{After: 180 * time.Millisecond, Kind: FailKill},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d harness errors across the kill", res.Errors)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost after recovery", res.LostKeys)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("fired %d of 2 events: %+v", len(res.Failures), res.Failures)
	}
	kill := res.Failures[1]
	if kill.Kind != FailKill || kill.Err != "" {
		t.Fatalf("kill outcome: %+v", kill)
	}
	if kill.Replayed == 0 {
		t.Fatal("kill recovery replayed nothing; the journal never saw the traffic")
	}
	res.Router.Repair()
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("recovered fleet inconsistent: %v", err)
	}
	// The run was instrumented, so the journal counters must have moved.
	var dump strings.Builder
	reg.WritePrometheus(&dump)
	if !strings.Contains(dump.String(), "journal_recoveries_total 1") {
		t.Errorf("journal_recoveries_total not 1 in:\n%s", dump.String())
	}
	if kill.String() == "" || !strings.Contains(kill.String(), "replayed") {
		t.Errorf("kill outcome renders as %q", kill.String())
	}
}

// TestKillRecoveryRing drives the same kill through the ring facade,
// with the membership churner running so recovery replays joins and
// leaves too.
func TestKillRecoveryRing(t *testing.T) {
	res, err := Run(Config{
		Space: "ring", Servers: 16, Choices: 3, KeyReplicas: 2,
		Workers: 4, Duration: 300 * time.Millisecond, Keys: 1 << 9,
		LookupFrac: 0.7, Dist: "zipf", Seed: 22,
		ChurnEvery: 25 * time.Millisecond, Rebalance: true,
		JournalDir: t.TempDir(),
		Failures: FailureScript{
			{After: 120 * time.Millisecond, Kind: FailKill},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d harness errors", res.Errors)
	}
	if res.LostKeys != 0 {
		t.Fatalf("%d keys lost after recovery", res.LostKeys)
	}
	if len(res.Failures) != 1 || res.Failures[0].Err != "" {
		t.Fatalf("kill outcome: %+v", res.Failures)
	}
	if res.Failures[0].Replayed == 0 {
		t.Fatal("ring kill recovery replayed nothing")
	}
	res.Router.Repair()
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("recovered ring inconsistent: %v", err)
	}
}

// TestJournaledRunWithoutKill: a JournalDir alone must journal the run
// (zone victim selection still sees the torus geometry) without
// changing any result contract.
func TestJournaledRunWithoutKill(t *testing.T) {
	res, err := Run(Config{
		Space: "torus", Dim: 2, Servers: 20, Choices: 3, KeyReplicas: 2,
		Workers: 4, Duration: 200 * time.Millisecond, Keys: 1 << 8,
		LookupFrac: 0.8, Dist: "zipf", Seed: 23,
		JournalDir: t.TempDir(),
		Failures: FailureScript{
			{After: 60 * time.Millisecond, Kind: FailZone, Frac: 0.25},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.LostKeys != 0 {
		t.Fatalf("errors=%d lost=%d", res.Errors, res.LostKeys)
	}
	if len(res.Failures) != 1 || len(res.Failures[0].Killed) == 0 {
		t.Fatalf("zone event on a journaled run killed nobody: %+v", res.Failures)
	}
}

// TestJournaledRunDetachesJournal: Run closes AND detaches the journal
// it started, so the returned router keeps taking writes and a
// post-run Rebalance still re-homes the records a churned run left
// stranded.
func TestJournaledRunDetachesJournal(t *testing.T) {
	res, err := Run(Config{
		Servers: 16, Workers: 4, Duration: 300 * time.Millisecond, Keys: 1 << 10,
		LookupFrac: 0.9, Seed: 24, ChurnEvery: 5 * time.Millisecond,
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Router.Place("after-run"); err != nil {
		t.Fatalf("Place after a journaled run: %v", err)
	}
	if err := res.Router.Remove("after-run"); err != nil {
		t.Fatalf("Remove after a journaled run: %v", err)
	}
	res.Router.Rebalance()
	if err := res.Router.CheckInvariants(); err != nil {
		t.Fatalf("after a post-run Rebalance: %v", err)
	}
}

// TestKillValidation pins the strict config surface: kill needs a
// journal, and takes no fraction anywhere — script string or struct.
func TestKillValidation(t *testing.T) {
	_, err := Run(Config{
		Servers: 8, Workers: 1, Keys: 64, Duration: 100 * time.Millisecond,
		Failures: FailureScript{{After: 20 * time.Millisecond, Kind: FailKill}},
	})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("kill without JournalDir accepted: %v", err)
	}

	script, err := ParseFailureScript("crash@50ms:0.2,kill@120ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(script) != 2 || script[1].Kind != FailKill || script[1].Frac != 0 {
		t.Fatalf("kill parsed as %+v", script)
	}
	for _, bad := range []string{
		"kill@120ms:0.5", // kill takes no fraction
		"kill@120ms:",    // not even an empty one
		"kill",           // no offset
	} {
		if script, err := ParseFailureScript(bad); err == nil {
			t.Errorf("script %q accepted as %+v", bad, script)
		}
	}
	ev := FailureEvent{After: time.Millisecond, Kind: FailKill, Frac: 0.3}
	if err := ev.validate(); err == nil {
		t.Error("kill event with a fraction validated")
	}
}
