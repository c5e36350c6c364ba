package router

import (
	"errors"
	"fmt"
	"testing"
)

func TestSetReplicationValidation(t *testing.T) {
	r := newModRouter(t, 2, "a", "b", "c")
	if err := r.SetReplication(0); err == nil {
		t.Error("replicas=0 accepted")
	}
	if err := r.SetReplication(MaxReplicas + 1); err == nil {
		t.Error("replicas over MaxReplicas accepted")
	}
	if err := r.SetReplication(3); err == nil {
		t.Error("replicas over the d hash choices accepted")
	}
	if err := r.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	if got := r.Replication(); got != 2 {
		t.Fatalf("Replication = %d, want 2", got)
	}
}

func TestSetDrainingValidation(t *testing.T) {
	r := newModRouter(t, 2, "a", "b")
	if err := r.SetDraining("ghost", true); err == nil {
		t.Error("draining an unknown server accepted")
	}
	if err := r.SetDraining("a", true); err != nil {
		t.Fatal(err)
	}
	// Idempotent set, clear, and clear-again keep the counter sane.
	if err := r.SetDraining("a", true); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDraining("a", false); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDraining("a", false); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.draining != 0 {
		t.Fatalf("draining counter = %d after clearing, want 0", s.draining)
	}
}

func TestPlaceReplicatedBasics(t *testing.T) {
	g := newTestGeo(t, 16, 2, 3, 42)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	const n = 400
	wantLoad := int64(0)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rep-%d", i)
		primary, reps, err := g.PlaceReplicated(key)
		if err != nil {
			t.Fatal(err)
		}
		if reps < 1 || reps > 2 {
			t.Fatalf("key %q has %d replicas", key, reps)
		}
		wantLoad += int64(reps)
		owners, err := g.Owners(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) != reps || owners[0] != primary {
			t.Fatalf("Owners(%q) = %v, want %d owners led by %q", key, owners, reps, primary)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q has duplicate replica %q", key, o)
			}
			seen[o] = true
		}
		// The primary from the record is what Locate and LocateAny serve.
		if got, err := g.Locate(key); err != nil || got != primary {
			t.Fatalf("Locate(%q) = %q, %v; want %q", key, got, err, primary)
		}
		if got, err := g.LocateAny(key); err != nil || got != primary {
			t.Fatalf("LocateAny(%q) = %q, %v; want %q", key, got, err, primary)
		}
	}
	// Each replica is charged to its server. (A key whose candidate
	// hashes resolve to fewer than 2 distinct servers legitimately
	// carries fewer replicas, so sum what PlaceReplicated reported.)
	var total int64
	for _, l := range g.Loads() {
		total += l
	}
	if total != wantLoad {
		t.Fatalf("total load = %d, want %d (each replica charged)", total, wantLoad)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Duplicate placement is still an error, and Remove un-charges every
	// replica.
	if _, _, err := g.PlaceReplicated("rep-0"); err == nil {
		t.Error("duplicate replicated placement accepted")
	}
	for i := 0; i < n; i++ {
		if err := g.Remove(fmt.Sprintf("rep-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumKeys() != 0 || g.MaxLoad() != 0 {
		t.Fatal("router not empty after removing every key")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationDegradesWithFewServers(t *testing.T) {
	// Two live servers cannot host 3 distinct replicas: the record
	// degrades to the distinct candidate count and CheckInvariants
	// accepts it.
	g := newTestGeo(t, 2, 2, 3, 9)
	if err := g.SetReplication(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, reps, err := g.PlaceReplicated(fmt.Sprintf("deg-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if reps > 2 {
			t.Fatalf("%d replicas on a 2-server fleet", reps)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLocateAnyUnplacedKey(t *testing.T) {
	g := newTestGeo(t, 4, 2, 2, 5)
	if _, err := g.LocateAny("ghost"); err == nil {
		t.Error("LocateAny found an unplaced key")
	}
	if _, err := g.Owners("ghost", nil); err == nil {
		t.Error("Owners found an unplaced key")
	}
}

func TestFailoverAndRepair(t *testing.T) {
	const servers = 30
	g := newTestGeo(t, servers, 2, 3, 1234)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fo-%d", i)
		if _, _, err := g.PlaceReplicated(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash ceil(n/10) servers - no drain, no rebalance. Keys whose
	// primary died must fail over to the surviving replica.
	crashed := map[string]bool{}
	for _, name := range g.Servers()[:3] {
		if err := g.RemoveServer(name); err != nil {
			t.Fatal(err)
		}
		crashed[name] = true
	}
	allLost := 0
	failedOver := 0
	for _, key := range keys {
		got, err := g.LocateAny(key)
		if err != nil {
			if !errors.Is(err, ErrNoLiveReplica) {
				t.Fatalf("LocateAny(%q): %v", key, err)
			}
			allLost++
			continue
		}
		if crashed[got] {
			t.Fatalf("LocateAny(%q) returned crashed server %q", key, got)
		}
		if primary, err := g.Locate(key); err == nil && crashed[primary] {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Fatal("no key exercised the failover path; crash more servers or place more keys")
	}
	// Repair: replaces lost replicas, reports how many keys lost every
	// copy, and leaves the router fully consistent.
	repaired, lost := g.Repair()
	if repaired == 0 {
		t.Fatal("Repair found nothing to do after a 3-server crash")
	}
	if lost != allLost {
		t.Fatalf("Repair reported %d all-replicas-lost keys, LocateAny saw %d", lost, allLost)
	}
	for _, key := range keys {
		got, err := g.LocateAny(key)
		if err != nil {
			t.Fatalf("key %q unlocatable after Repair: %v", key, err)
		}
		if crashed[got] {
			t.Fatalf("key %q still reads from crashed server %q after Repair", key, got)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after Repair: %v", err)
	}
	if rep, _ := g.Repair(); rep != 0 {
		t.Fatalf("second Repair still moved %d keys; repair did not converge", rep)
	}
}

func TestRepairPreservesSurvivors(t *testing.T) {
	g := newTestGeo(t, 20, 2, 3, 77)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	const n = 800
	owners := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("sv-%d", i)
		if _, _, err := g.PlaceReplicated(key); err != nil {
			t.Fatal(err)
		}
		o, err := g.Owners(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		owners[key] = o
	}
	victim := g.Servers()[0]
	if err := g.RemoveServer(victim); err != nil {
		t.Fatal(err)
	}
	g.Repair()
	// Every replica that was healthy before the crash and still resolves
	// must still be in the key's owner set: Repair replaces only what
	// was lost.
	kept, moved := 0, 0
	for key, before := range owners {
		after, err := g.Owners(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		inAfter := map[string]bool{}
		for _, o := range after {
			inAfter[o] = true
		}
		for _, o := range before {
			if o == victim {
				continue
			}
			if inAfter[o] {
				kept++
			} else {
				moved++
			}
		}
	}
	// The topology rebuild can legitimately capture a few survivors
	// (their candidate point now resolves elsewhere), but the vast
	// majority must stay put.
	if moved*10 > kept {
		t.Fatalf("Repair moved %d healthy replicas, kept %d — survivors not preserved", moved, kept)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainingPlacementAndReads(t *testing.T) {
	g := newTestGeo(t, 10, 2, 3, 31)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	victim := g.Servers()[0]
	if err := g.SetDraining(victim, true); err != nil {
		t.Fatal(err)
	}
	// New placements avoid the draining server whenever any alternative
	// candidate exists; only a key whose EVERY candidate resolves to the
	// draining server may land there (and then as its sole replica).
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("dr-%d", i)
		if _, _, err := g.PlaceReplicated(key); err != nil {
			t.Fatal(err)
		}
		owners, _ := g.Owners(key, nil)
		for _, o := range owners {
			if o == victim && len(owners) != 1 {
				t.Fatalf("key %q placed on draining server %q alongside %v", key, o, owners)
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Un-draining widens the candidate set again, so keys that degraded
	// around the drained server are under-target until Repair re-conforms
	// them — the same "repair after changing the target" contract as
	// SetReplication.
	if err := g.SetDraining(victim, false); err != nil {
		t.Fatal(err)
	}
	g.Repair()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulLeave(t *testing.T) {
	// The documented drain -> migrate -> remove sequence: afterwards the
	// removed server holds nothing and nothing was ever unlocatable.
	g := newTestGeo(t, 12, 2, 3, 63)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("gl-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := g.Servers()[0]
	if err := g.SetDraining(victim, true); err != nil {
		t.Fatal(err)
	}
	for {
		p := g.PlanMigration(128)
		if p.Len() == 0 {
			break
		}
		for !p.Done() {
			p.ApplyBatch(32)
		}
		if !p.Truncated() {
			break
		}
	}
	if load := g.Loads()[victim]; load != 0 {
		t.Fatalf("drained server still holds %d replicas", load)
	}
	if err := g.RemoveServer(victim); err != nil {
		t.Fatal(err)
	}
	if repaired, lost := g.Repair(); lost != 0 {
		t.Fatalf("graceful leave lost %d keys (repaired %d)", lost, repaired)
	}
	for i := 0; i < n; i++ {
		if _, err := g.LocateAny(fmt.Sprintf("gl-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairAfterReplicationChange(t *testing.T) {
	g := newTestGeo(t, 10, 2, 3, 8)
	if err := g.SetReplication(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := g.Place(fmt.Sprintf("rc-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Raising the factor: Repair grafts the missing replicas onto the
	// existing primary without moving it.
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	if repaired, lost := g.Repair(); repaired == 0 || lost != 0 {
		t.Fatalf("Repair after raising replication: repaired=%d lost=%d", repaired, lost)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	owners, err := g.Owners("rc-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 2 {
		t.Fatalf("key has %d owners after raising replication to 2", len(owners))
	}
	// Lowering it: Repair sheds the extras.
	if err := g.SetReplication(1); err != nil {
		t.Fatal(err)
	}
	if repaired, lost := g.Repair(); repaired == 0 || lost != 0 {
		t.Fatalf("Repair after lowering replication: repaired=%d lost=%d", repaired, lost)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedAllocFree(t *testing.T) {
	g := newTestGeo(t, 64, 2, 3, 99)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-%d", i)
		if _, _, err := g.PlaceReplicated(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		key := keys[i%len(keys)]
		i++
		if _, err := g.LocateAny(key); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("LocateAny allocates %.2f per call", avg)
	}
	i = 0
	if avg := testing.AllocsPerRun(2000, func() {
		key := keys[i%len(keys)]
		i++
		if err := g.Remove(key); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.PlaceReplicated(key); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Remove+PlaceReplicated allocates %.2f per cycle", avg)
	}
}

// TestSingleOwnerRecoveryKeepsKeys: a router that never called
// SetReplication serves one replica per key, and its recovery passes
// must write records of that size. Both the crash sequence (remove a
// server, Repair) and the graceful one (drain, plan and apply the
// migration) must leave every key readable and every invariant intact.
func TestSingleOwnerRecoveryKeepsKeys(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disrupt func(g *Geo, victim string) error
	}{
		{"crash+repair", func(g *Geo, victim string) error {
			if err := g.RemoveServer(victim); err != nil {
				return err
			}
			g.Repair()
			return nil
		}},
		{"drain+migrate", func(g *Geo, victim string) error {
			if err := g.SetDraining(victim, true); err != nil {
				return err
			}
			g.PlanMigration(0).ApplyAll()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newTestGeo(t, 16, 2, 2, 42)
			keys := make([]string, 400)
			for i := range keys {
				keys[i] = fmt.Sprintf("so-%d", i)
				if _, err := g.Place(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.disrupt(g, g.Servers()[0]); err != nil {
				t.Fatal(err)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				if _, err := g.LocateAny(key); err != nil {
					t.Fatalf("key %q lost: %v", key, err)
				}
			}
		})
	}
}
