package router

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/metrics"
)

func TestSetBoundedLoadValidation(t *testing.T) {
	g := newTestGeo(t, 4, 2, 2, 1)
	for _, bad := range []float64{1, 0.5, -1, math.NaN()} {
		if err := g.SetBoundedLoad(bad); err == nil {
			t.Errorf("SetBoundedLoad(%v) accepted", bad)
		}
	}
	for _, good := range []float64{1.25, 2, 0} {
		if err := g.SetBoundedLoad(good); err != nil {
			t.Errorf("SetBoundedLoad(%v): %v", good, err)
		}
		if got := g.BoundedLoad(); got != good {
			t.Errorf("BoundedLoad = %v after SetBoundedLoad(%v)", got, good)
		}
	}
}

// TestBoundedLoadGuarantee pins the policy's defining property: with
// admission active from the first key, every server's load stays
// within ceil(c * m * cap_s / capSum) at all times — the bound the
// tailbound package predicts and the Table family validates at scale.
func TestBoundedLoadGuarantee(t *testing.T) {
	const (
		n = 16
		c = 1.25
		m = 2000
	)
	g := newTestGeo(t, n, 2, 2, 5)
	if err := g.SetBoundedLoad(c); err != nil {
		t.Fatal(err)
	}
	placed, rejected := 0, 0
	for i := 0; i < m; i++ {
		_, err := g.Place(fmt.Sprintf("bl-%d", i))
		switch {
		case err == nil:
			placed++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatal(err)
		}
		// The invariant must hold mid-stream, not only at the end.
		if i%100 == 99 {
			limit := int64(math.Ceil(c * float64(placed) / n))
			if max := g.MaxLoad(); max > limit {
				t.Fatalf("after %d placements: max load %d exceeds ceil(c*m/n) = %d", placed, max, limit)
			}
		}
	}
	if placed == 0 {
		t.Fatal("no key admitted")
	}
	limit := int64(math.Ceil(c * float64(placed) / n))
	for name, load := range g.Loads() {
		if load > limit {
			t.Errorf("server %s: load %d exceeds guarantee %d", name, load, limit)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("placed %d, rejected %d, max load %d, guarantee %d", placed, rejected, g.MaxLoad(), limit)
}

// TestBoundedForwardAndReject drives the policy into both outcomes
// with a capacity collapse: after slashing one of two servers to a
// token capacity, keys with a healthy candidate forward to it (the
// saturated candidate skipped, counted in router_forwards_total) and
// keys whose every candidate is the slashed server are rejected with
// the typed, hinted error.
func TestBoundedForwardAndReject(t *testing.T) {
	g := newTestGeo(t, 2, 2, 2, 3)
	reg := metrics.NewRegistry()
	m := g.Instrument(reg)
	for i := 0; i < 100; i++ {
		if _, err := g.Place(fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := g.Servers()[0]
	loads := g.Loads()
	if err := g.SetCapacity(victim, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBoundedLoad(1.25); err != nil {
		t.Fatal(err)
	}
	placed, rejected := 0, 0
	var hinted *OverloadedError
	for i := 0; i < 500; i++ {
		_, err := g.Place(fmt.Sprintf("post-%d", i))
		switch {
		case err == nil:
			placed++
		case errors.Is(err, ErrOverloaded):
			rejected++
			if !errors.As(err, &hinted) {
				t.Fatalf("overload error %v is not an *OverloadedError", err)
			}
		default:
			t.Fatal(err)
		}
	}
	if placed == 0 || rejected == 0 {
		t.Fatalf("placed %d, rejected %d: want both outcomes", placed, rejected)
	}
	if hinted.RetryAfter < time.Millisecond {
		t.Errorf("retry-after hint %v below the 1ms floor", hinted.RetryAfter)
	}
	if got := g.Loads()[victim]; got != loads[victim] {
		t.Errorf("slashed server took %d new keys with admission active", got-loads[victim])
	}
	if m.Forwards.Value() == 0 {
		t.Error("no forwards counted despite a saturated candidate")
	}
	if got := m.Rejects.Value(); got != int64(rejected) {
		t.Errorf("Rejects counter %d, want %d", got, rejected)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedCapacityRelative: the threshold is capacity-relative, so
// a high-capacity server absorbs proportionally more keys before the
// policy forwards past it.
func TestBoundedCapacityRelative(t *testing.T) {
	g, err := NewGeo(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A 4x-capacity server among three unit servers, all placed
	// through the capacity-taking membership op.
	caps := map[string]float64{"big": 4, "s1": 1, "s2": 1, "s3": 1}
	coords := map[string]geom.Vec{
		"big": {0.1, 0.1}, "s1": {0.6, 0.1}, "s2": {0.1, 0.6}, "s3": {0.6, 0.6},
	}
	for name, cp := range caps {
		if err := g.AddServerWithCapacity(name, coords[name], cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetBoundedLoad(1.25); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for i := 0; i < 4000; i++ {
		_, err := g.Place(fmt.Sprintf("cr-%d", i))
		if err == nil {
			placed++
		} else if !errors.Is(err, ErrOverloaded) {
			t.Fatal(err)
		}
	}
	const capSum = 7.0
	for name, load := range g.Loads() {
		limit := int64(math.Ceil(1.25 * float64(placed) * caps[name] / capSum))
		if load > limit {
			t.Errorf("server %s (cap %v): load %d exceeds capacity-relative guarantee %d",
				name, caps[name], load, limit)
		}
	}
	if big, s1 := g.Loads()["big"], g.Loads()["s1"]; big < 2*s1 {
		t.Errorf("capacity-4 server load %d not clearly above capacity-1 load %d", big, s1)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// distinctCandidates reports how many distinct servers a key's d
// choices resolve to — the replication target for that key is min(R,
// this), so a record shorter than R is legitimate exactly when the
// candidate set itself collapsed.
func distinctCandidates(g *Geo, key string) int {
	n, _ := countCandidates(g, key)
	return n
}

// countCandidates resolves the key's d choices and counts the distinct
// candidates and, of those, the ones not draining.
func countCandidates(g *Geo, key string) (distinct, serving int) {
	t := g.rt.Snapshot()
	var cb [MaxChoices]int32
	cands := t.resolve(key, Hash('k', 0, key), &cb)
	for j, s := range cands {
		if !slices.Contains(cands[:j], s) {
			distinct++
			if !t.IsDraining(s) {
				serving++
			}
		}
	}
	return distinct, serving
}

// nonDrainingCandidates counts the key's distinct candidates that are
// not draining.
func nonDrainingCandidates(g *Geo, key string) int {
	_, n := countCandidates(g, key)
	return n
}

// TestBoundedFullReplicaSetOrReject: with replication, admission
// either places the full target replica set on admissible candidates
// or rejects — it never records a degraded set that the next Repair
// would push back onto the saturated servers.
func TestBoundedFullReplicaSetOrReject(t *testing.T) {
	g := newTestGeo(t, 8, 2, 3, 17)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := g.PlaceReplicated(fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Slash most of the fleet so many candidate sets cannot seat two
	// admissible replicas.
	for _, name := range g.Servers()[:6] {
		if err := g.SetCapacity(name, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetBoundedLoad(1.25); err != nil {
		t.Fatal(err)
	}
	placed, rejected := 0, 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("post-%d", i)
		_, nrep, err := g.PlaceReplicated(key)
		switch {
		case err == nil:
			placed++
			if nrep != 2 && distinctCandidates(g, key) >= 2 {
				t.Fatalf("admitted key %s carries %d replicas despite %d distinct candidates",
					key, nrep, distinctCandidates(g, key))
			}
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Error("no rejection despite 6 of 8 servers saturated at replication 2")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("placed %d (all full sets), rejected %d", placed, rejected)
}

// TestBoundedComposesWithDraining: draining stays a soft filter under
// admission — drained servers take no new keys while an admissible
// alternative exists, and the records admission writes stay valid
// under CheckInvariants.
func TestBoundedComposesWithDraining(t *testing.T) {
	g := newTestGeo(t, 8, 2, 3, 29)
	if err := g.SetBoundedLoad(2); err != nil {
		t.Fatal(err)
	}
	drained := g.Servers()[0]
	if err := g.SetDraining(drained, true); err != nil {
		t.Fatal(err)
	}
	onDrained := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("dr-%d", i)
		if _, err := g.Place(key); err != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatal(err)
			}
			continue
		}
		srv, err := g.Locate(key)
		if err != nil {
			t.Fatal(err)
		}
		if srv == drained {
			onDrained++
			// Legitimate only when every candidate drains: the key must
			// still live somewhere.
			if nd := nonDrainingCandidates(g, key); nd != 0 {
				t.Errorf("key %s landed on the draining server with %d non-draining candidates", key, nd)
			}
		}
	}
	t.Logf("%d keys had no non-draining candidate", onDrained)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryBypassesBound: Repair and Rebalance must re-home keys
// even when every target sits above the admission threshold — existing
// keys have to live somewhere; the policy gates only new placements.
func TestRecoveryBypassesBound(t *testing.T) {
	g := newTestGeo(t, 4, 2, 2, 41)
	for i := 0; i < 400; i++ {
		if _, err := g.Place(fmt.Sprintf("rc-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A tight bound on a loaded fleet: a fresh placement would often
	// reject, but recovery must not.
	if err := g.SetBoundedLoad(1.05); err != nil {
		t.Fatal(err)
	}
	victim := g.Servers()[0]
	if err := g.RemoveServer(victim); err != nil {
		t.Fatal(err)
	}
	repaired, lost := g.Repair()
	if lost != repaired && lost > 0 {
		// Single-owner keys on the dead server lose their only replica;
		// Repair re-homes the records regardless.
		t.Logf("repair: %d repaired, %d had lost every replica", repaired, lost)
	}
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := g.LocateAny(fmt.Sprintf("rc-%d", i)); err != nil {
			t.Fatalf("key rc-%d unreadable after recovery under a tight bound: %v", i, err)
		}
	}
}

// TestBoundedAllocFree pins the satellite guarantee: the bounded-load
// hot path allocates nothing on success, policy off AND on, metrics
// attached or not — matching the existing Locate/PlaceReplicated
// guards.
func TestBoundedAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name         string
		bound        float64
		instrumented bool
	}{
		{"off-plain", 0, false},
		{"on-plain", 3, false},
		{"on-instrumented", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newTestGeo(t, 64, 2, 3, 99)
			if err := g.SetReplication(2); err != nil {
				t.Fatal(err)
			}
			if tc.bound > 0 {
				if err := g.SetBoundedLoad(tc.bound); err != nil {
					t.Fatal(err)
				}
			}
			if tc.instrumented {
				g.Instrument(metrics.NewRegistry())
			}
			keys := make([]string, 512)
			for i := range keys {
				keys[i] = fmt.Sprintf("ba-%d", i)
				if _, _, err := g.PlaceReplicated(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
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
		})
	}
}

// TestAddWithCapacityRevive: reviving a removed slot through the
// capacity-taking add resets its capacity.
func TestAddWithCapacityRevive(t *testing.T) {
	g, err := NewGeo(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddServerWithCapacity("a", geom.Vec{0.2, 0.2}, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddServer("b", geom.Vec{0.7, 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveServer("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddServerWithCapacity("a", geom.Vec{0.3, 0.3}, 5); err != nil {
		t.Fatal(err)
	}
	s := g.rt.Snapshot()
	slot, ok := s.Slot("a")
	if !ok || s.Caps[slot] != 5 {
		t.Fatalf("revived slot capacity = %v, want 5", s.Caps[slot])
	}
	if want := 6.0; math.Abs(s.CapSum-want) > 1e-9 {
		t.Fatalf("CapSum = %v, want %v", s.CapSum, want)
	}
	if err := g.AddServerWithCapacity("c", geom.Vec{0.5, 0.5}, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}
