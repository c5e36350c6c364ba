package router

import (
	"fmt"
	"strings"
	"testing"
)

// modTopo is a minimal stub topology for exercising the generic core
// in isolation: a hash resolves to one of the live slots by modulus.
type modTopo struct {
	live []int32
}

func (t *modTopo) Resolve(h uint64) int32 {
	return t.live[h%uint64(len(t.live))]
}

// buildMod collects the live slots of a transaction into a modTopo
// (nil when none are live, matching the Live==0 contract).
func buildMod(tx *Txn) Topology {
	var live []int32
	for i, d := range tx.Dead() {
		if !d {
			live = append(live, int32(i))
		}
	}
	if live == nil {
		return nil
	}
	return &modTopo{live: live}
}

func newModRouter(t *testing.T, d int, servers ...string) *Router {
	t.Helper()
	r, err := New("stub", d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		if err := r.Update(func(tx *Txn) (Topology, error) {
			if _, err := tx.Add(s); err != nil {
				return nil, err
			}
			return buildMod(tx), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestCoreValidation(t *testing.T) {
	if _, err := New("stub", 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := New("stub", MaxChoices+1); err == nil {
		t.Error("d over MaxChoices accepted")
	}
	r := newModRouter(t, 2)
	if _, err := r.Place("k"); err == nil {
		t.Error("placement with no servers accepted")
	}
	addErr := r.Update(func(tx *Txn) (Topology, error) {
		if _, err := tx.Add(""); err != nil {
			return nil, err
		}
		return buildMod(tx), nil
	})
	if addErr == nil {
		t.Error("empty server name accepted")
	}
}

func TestCoreErrorPrefix(t *testing.T) {
	// Facades lend their package name to the core's error text.
	r := newModRouter(t, 2, "a")
	_, err := r.Locate("ghost")
	if err == nil || !strings.HasPrefix(err.Error(), "stub: ") {
		t.Fatalf("error %v does not carry the router name", err)
	}
}

func TestCorePlaceLocateRemove(t *testing.T) {
	r := newModRouter(t, 2, "a", "b", "c")
	s, err := r.Place("hello")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Locate("hello"); err != nil || got != s {
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
		t.Fatal("router not empty after removal")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoreUpdateAbortPublishesNothing(t *testing.T) {
	r := newModRouter(t, 2, "a", "b")
	before := r.Snapshot()
	err := r.Update(func(tx *Txn) (Topology, error) {
		if _, err := tx.Add("c"); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("Update error = %v", err)
	}
	if r.Snapshot() != before {
		t.Fatal("aborted Update published a snapshot")
	}
	if r.NumServers() != 2 {
		t.Fatalf("NumServers = %d after aborted add", r.NumServers())
	}
}

func TestCoreRebalanceAfterTopologyChange(t *testing.T) {
	r := newModRouter(t, 2, "a", "b", "c", "d")
	const m = 512
	for i := 0; i < m; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := r.Loads()["b"]
	if err := r.Update(func(tx *Txn) (Topology, error) {
		if _, err := tx.Remove("b"); err != nil {
			return nil, err
		}
		return buildMod(tx), nil
	}); err != nil {
		t.Fatal(err)
	}
	moved := r.Rebalance()
	if int64(moved) < victim {
		t.Fatalf("moved %d < victim's %d keys", moved, victim)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after remove+rebalance: %v", err)
	}
	if r.NumKeys() != m {
		t.Fatal("keys lost")
	}
	if _, ok := r.Loads()["b"]; ok {
		t.Fatal("dead server still reported in Loads")
	}
}

func TestCoreSetCapacity(t *testing.T) {
	r := newModRouter(t, 2, "a", "b")
	if err := r.SetCapacity("a", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := r.SetCapacity("ghost", 2); err == nil {
		t.Error("unknown server accepted")
	}
	if err := r.SetCapacity("a", 3); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Caps[0]; got != 3 {
		t.Fatalf("capacity = %v", got)
	}
}

func TestCoreLoadsInto(t *testing.T) {
	r := newModRouter(t, 2, "a", "b", "c")
	for i := 0; i < 300; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	m := make(map[string]int64)
	m["stale-entry"] = 99
	r.LoadsInto(m)
	want := r.Loads()
	if len(m) != len(want) {
		t.Fatalf("LoadsInto kept stale entries: %v vs %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("LoadsInto[%q] = %d, Loads %d", k, m[k], v)
		}
	}
	// The reporting-loop contract: folding into a warmed map does not
	// allocate.
	if got := testing.AllocsPerRun(100, func() { r.LoadsInto(m) }); got != 0 {
		t.Errorf("LoadsInto allocates %v per run; want 0", got)
	}
}

func TestCoreServersSorted(t *testing.T) {
	r := newModRouter(t, 1, "zeta", "alpha", "mid")
	got := r.Servers()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Fatalf("Servers() = %v", got)
	}
	if r.NumServers() != 3 || r.Choices() != 1 {
		t.Fatal("NumServers/Choices wrong")
	}
}

// tableTopo resolves the hashes it lists to fixed slots, anything else
// to slot 0.
type tableTopo map[uint64]int32

func (t tableTopo) Resolve(h uint64) int32 { return t[h] }

// TestReplicatedTiesFollowChoiceOrder pins the documented tie rule of
// replicated selection: equally loaded candidates rank by choice index.
// With candidate loads [1, 1, 0] and R=2 the record is choices {2, 0}.
func TestReplicatedTiesFollowChoiceOrder(t *testing.T) {
	topo := tableTopo{}
	route := func(key string, slots ...int32) {
		for j, s := range slots {
			topo[Hash('k', j, key)] = s
		}
	}
	route("load-a", 0, 0, 0)
	route("load-b", 1, 1, 1)
	route("tie", 0, 1, 2)
	r, err := New("stub", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Update(func(tx *Txn) (Topology, error) {
			_, err := tx.Add(name)
			return topo, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"load-a", "load-b", "tie"} {
		if _, err := r.Place(key); err != nil {
			t.Fatal(err)
		}
	}
	owners, err := r.Owners("tie", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(owners) != "[c a]" {
		t.Fatalf("tie placed on %v, want [c a] (choices 2 then 0)", owners)
	}
}
