package hashring

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"geobalance/internal/rng"
)

func serverNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("server-%03d", i)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{""}); err == nil {
		t.Error("empty server name accepted")
	}
	if _, err := New([]string{"a", "a"}); err == nil {
		t.Error("duplicate server accepted")
	}
	if _, err := New(nil, WithChoices(0)); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := New(nil, WithReplicas(0)); err == nil {
		t.Error("replicas=0 accepted")
	}
}

// TestNewMatchesAddServer: New adds its servers in one membership
// transaction, and the snapshot it publishes is the one as many
// AddServer calls build — the same slots, capacities and ring points
// and owners — with or without virtual points. A bad name anywhere in
// the list still fails New.
func TestNewMatchesAddServer(t *testing.T) {
	names := serverNames(300)
	for _, replicas := range []int{1, 3} {
		got, err := New(names, WithReplicas(replicas))
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(nil, WithReplicas(replicas))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := want.AddServer(name); err != nil {
				t.Fatal(err)
			}
		}
		gs, ws := got.Snapshot(), want.Snapshot()
		if !slices.Equal(gs.Names, ws.Names) || !slices.Equal(gs.Caps, ws.Caps) ||
			!slices.Equal(gs.Dead, ws.Dead) || gs.Live != ws.Live || gs.CapSum != ws.CapSum {
			t.Fatalf("replicas %d: New's slot tables differ from %d AddServer calls'", replicas, len(names))
		}
		for i, name := range names {
			if s, ok := gs.Slot(name); !ok || s != int32(i) {
				t.Fatalf("replicas %d: %q in slot %d, %v; want %d", replicas, name, s, ok, i)
			}
		}
		gt, wt := gs.Topo.(*ringTopo), ws.Topo.(*ringTopo)
		if !slices.Equal(gt.bits, wt.bits) || !slices.Equal(gt.owner, wt.owner) || gt.replicas != wt.replicas {
			t.Fatalf("replicas %d: New's ring points or owners differ from AddServer's", replicas)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][]string{{"a", "b", "c", "b"}, {"a", "b", ""}} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

func TestPlaceOnEmptyRing(t *testing.T) {
	r, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Place("k"); err == nil {
		t.Error("placement on empty ring accepted")
	}
}

func TestPlaceLocateRemove(t *testing.T) {
	r, err := New(serverNames(10))
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Place("hello")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Locate("hello")
	if err != nil || got != s {
		t.Fatalf("Locate = %q, %v; placed on %q", got, err, s)
	}
	if _, err := r.Place("hello"); err == nil {
		t.Error("duplicate placement accepted")
	}
	if err := r.Remove("hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Locate("hello"); err == nil {
		t.Error("Locate found a removed key")
	}
	if err := r.Remove("hello"); err == nil {
		t.Error("double remove accepted")
	}
	if r.NumKeys() != 0 || r.MaxLoad() != 0 {
		t.Fatal("ring not empty after removal")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	// Placement is a pure function of membership + key history.
	build := func() *Ring {
		r, err := New(serverNames(20))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		la, _ := a.Locate(key)
		lb, _ := b.Locate(key)
		if la != lb {
			t.Fatalf("placement not deterministic for %q: %q vs %q", key, la, lb)
		}
	}
}

func TestTwoChoicesBeatOneChoice(t *testing.T) {
	maxLoad := func(d int) int64 {
		r, err := New(serverNames(256), WithChoices(d))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return r.MaxLoad()
	}
	one, two := maxLoad(1), maxLoad(2)
	if two >= one {
		t.Fatalf("d=2 max load %d not below d=1 %d", two, one)
	}
}

func TestLoadsSumToKeys(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(50)
		m := rr.Intn(500)
		r, err := New(serverNames(n), WithChoices(1+rr.Intn(3)))
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
				return false
			}
		}
		var total int64
		for _, l := range r.Loads() {
			total += l
		}
		return total == int64(m) && r.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddServerThenRebalance(t *testing.T) {
	r, err := New(serverNames(32), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	const m = 2048
	for i := 0; i < m; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddServer("newcomer"); err != nil {
		t.Fatal(err)
	}
	moved := r.Rebalance()
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after join+rebalance: %v", err)
	}
	// With d=2 a join captures arcs for both hash functions: expected
	// moved ~ d*m/(n+1) = 124; allow wide slack but insist on locality.
	if moved < 1 || moved > 8*2*m/33 {
		t.Fatalf("join moved %d keys; expected around %d", moved, 2*m/33)
	}
	if r.NumKeys() != m {
		t.Fatal("keys lost")
	}
}

func TestRemoveServerThenRebalance(t *testing.T) {
	r, err := New(serverNames(32), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	const m = 2048
	for i := 0; i < m; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	victimLoad := r.Loads()["server-007"]
	if err := r.RemoveServer("server-007"); err != nil {
		t.Fatal(err)
	}
	moved := r.Rebalance()
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after leave+rebalance: %v", err)
	}
	if int64(moved) < victimLoad {
		t.Fatalf("moved %d < victim's %d keys", moved, victimLoad)
	}
	if r.NumKeys() != m {
		t.Fatal("keys lost")
	}
	if _, ok := r.Loads()["server-007"]; ok {
		t.Fatal("dead server still reported in Loads")
	}
}

func TestRemoveValidation(t *testing.T) {
	r, err := New(serverNames(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveServer("nope"); err == nil {
		t.Error("unknown server removal accepted")
	}
	if err := r.RemoveServer("server-000"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveServer("server-000"); err == nil {
		t.Error("double removal accepted")
	}
	if err := r.RemoveServer("server-001"); err == nil {
		t.Error("removing last server accepted")
	}
}

func TestReAddServer(t *testing.T) {
	r, err := New(serverNames(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveServer("server-002"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddServer("server-002"); err != nil {
		t.Fatalf("re-adding removed server: %v", err)
	}
	if r.NumServers() != 4 {
		t.Fatalf("NumServers = %d", r.NumServers())
	}
	if err := r.AddServer("server-002"); err == nil {
		t.Error("duplicate add accepted")
	}
}

func TestReplicasSmoothD1(t *testing.T) {
	// Classic result: more replicas smooth d=1 imbalance.
	maxLoad := func(replicas int) int64 {
		r, err := New(serverNames(128), WithChoices(1), WithReplicas(replicas))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return r.MaxLoad()
	}
	if maxLoad(16) >= maxLoad(1) {
		t.Fatalf("16 replicas (%d) did not beat 1 replica (%d)", maxLoad(16), maxLoad(1))
	}
}

func TestChurnStorm(t *testing.T) {
	r, err := New(serverNames(8), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	rr := rng.New(42)
	inserted, serverSeq := 0, 8
	for step := 0; step < 50; step++ {
		switch rr.Intn(3) {
		case 0:
			if err := r.AddServer(fmt.Sprintf("extra-%d", serverSeq)); err != nil {
				t.Fatal(err)
			}
			serverSeq++
			r.Rebalance()
		case 1:
			if r.NumServers() > 2 {
				// Remove an arbitrary live server.
				for name := range r.Loads() {
					if err := r.RemoveServer(name); err != nil {
						t.Fatal(err)
					}
					break
				}
				r.Rebalance()
			}
		case 2:
			for k := 0; k < 25; k++ {
				if _, err := r.Place(fmt.Sprintf("storm-%d", inserted)); err != nil {
					t.Fatal(err)
				}
				inserted++
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if r.NumKeys() != inserted {
		t.Fatalf("keys = %d, inserted %d", r.NumKeys(), inserted)
	}
	for i := 0; i < inserted; i++ {
		if _, err := r.Locate(fmt.Sprintf("storm-%d", i)); err != nil {
			t.Fatalf("lost key storm-%d: %v", i, err)
		}
	}
}

func TestSetCapacityValidation(t *testing.T) {
	r, err := New(serverNames(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetCapacity("nope", 2); err == nil {
		t.Error("unknown server accepted")
	}
	if err := r.SetCapacity("server-000", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := r.SetCapacity("server-000", -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := r.SetCapacity("server-000", 3); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityProportionalPlacement(t *testing.T) {
	// Half the servers get capacity 3; with d=4 choices they should end
	// up with roughly 3x the keys of the capacity-1 servers.
	names := serverNames(64)
	r, err := New(names, WithChoices(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if i%2 == 1 {
			if err := r.SetCapacity(name, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64*40; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var small, big int64
	for i, name := range names {
		l := r.Loads()[name]
		if i%2 == 0 {
			small += l
		} else {
			big += l
		}
	}
	ratio := float64(big) / float64(small)
	if ratio < 2.2 || ratio > 3.8 {
		t.Fatalf("capacity-3 servers got %.2fx the keys; want ~3x", ratio)
	}
}

func BenchmarkPlace(b *testing.B) {
	r, err := New(serverNames(1024), WithChoices(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Place(fmt.Sprintf("bench-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebalanceAfterJoin(b *testing.B) {
	r, err := New(serverNames(256), WithChoices(2))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8192; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.AddServer(fmt.Sprintf("join-%d", i)); err != nil {
			b.Fatal(err)
		}
		r.Rebalance()
	}
}

// TestSingleOwnerRecoveryKeepsKeys: a ring that never called
// SetReplication must keep every key through a crash and Repair, and
// through a drain and migration (the single-owner records the recovery
// passes write must be readable and pass CheckInvariants).
func TestSingleOwnerRecoveryKeepsKeys(t *testing.T) {
	for _, drain := range []bool{false, true} {
		r, err := New(serverNames(16), WithChoices(2))
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 400)
		for i := range keys {
			keys[i] = fmt.Sprintf("so-%d", i)
			if _, err := r.Place(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		victim := r.Servers()[0]
		if drain {
			if err := r.SetDraining(victim, true); err != nil {
				t.Fatal(err)
			}
			r.PlanMigration(0).ApplyAll()
		} else {
			if err := r.RemoveServer(victim); err != nil {
				t.Fatal(err)
			}
			r.Repair()
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("drain=%v: %v", drain, err)
		}
		for _, key := range keys {
			if _, err := r.LocateAny(key); err != nil {
				t.Fatalf("drain=%v: key %q lost: %v", drain, key, err)
			}
		}
	}
}
