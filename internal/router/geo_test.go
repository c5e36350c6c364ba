package router

import (
	"fmt"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// newTestGeo builds a Geo with n servers at deterministic random
// coordinates.
func newTestGeo(t testing.TB, n, dim, d int, seed uint64) *Geo {
	t.Helper()
	g, err := NewGeo(dim, d)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	at := make(geom.Vec, dim)
	for i := 0; i < n; i++ {
		for j := range at {
			at[j] = r.Float64()
		}
		if err := g.AddServer(fmt.Sprintf("dc-%03d", i), at); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGeoValidation(t *testing.T) {
	if _, err := NewGeo(0, 2); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := NewGeo(MaxGeoDim+1, 2); err == nil {
		t.Error("dim over MaxGeoDim accepted")
	}
	if _, err := NewGeo(2, 0); err == nil {
		t.Error("d=0 accepted")
	}
	g, err := NewGeo(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Place("k"); err == nil {
		t.Error("placement on empty router accepted")
	}
	if err := g.AddServer("a", geom.Vec{0.5}); err == nil {
		t.Error("wrong-dimension coordinates accepted")
	}
	if err := g.AddServer("a", geom.Vec{0.5, 1.0}); err == nil {
		t.Error("coordinate 1.0 accepted")
	}
	if g.NumServers() != 0 {
		t.Fatal("failed AddServer left membership behind")
	}
	if err := g.AddServer("a", geom.Vec{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddServer("a", geom.Vec{0.1, 0.1}); err == nil {
		t.Error("duplicate server accepted")
	}
	if err := g.RemoveServer("ghost"); err == nil {
		t.Error("unknown server removal accepted")
	}
	if err := g.RemoveServer("a"); err == nil {
		t.Error("removing the last server accepted")
	}
	// A bad coordinate on a NON-empty router takes the incremental
	// (WithSite) path; the aborted transaction must publish nothing.
	if err := g.AddServer("b", geom.Vec{0.2, -0.1}); err == nil {
		t.Error("negative coordinate accepted")
	}
	if g.NumServers() != 1 {
		t.Fatal("failed incremental AddServer left membership behind")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeoPlaceLocateRemove(t *testing.T) {
	g := newTestGeo(t, 10, 2, 2, 1)
	s, err := g.Place("hello")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := g.Locate("hello"); err != nil || got != s {
		t.Fatalf("Locate = %q, %v; placed on %q", got, err, s)
	}
	if _, err := g.Place("hello"); err == nil {
		t.Error("duplicate placement accepted")
	}
	if err := g.Remove("hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Locate("hello"); err == nil {
		t.Error("Locate found a removed key")
	}
	if g.NumKeys() != 0 || g.MaxLoad() != 0 {
		t.Fatal("router not empty after removal")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeoDeterministicPlacement(t *testing.T) {
	build := func() *Geo {
		g := newTestGeo(t, 20, 2, 2, 7)
		for i := 0; i < 500; i++ {
			if _, err := g.Place(fmt.Sprintf("key-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return g
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

func TestGeoTwoChoicesBeatOneChoice(t *testing.T) {
	maxLoad := func(d int) int64 {
		g := newTestGeo(t, 256, 2, d, 3)
		for i := 0; i < 4096; i++ {
			if _, err := g.Place(fmt.Sprintf("key-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return g.MaxLoad()
	}
	one, two := maxLoad(1), maxLoad(2)
	if two >= one {
		t.Fatalf("d=2 max load %d not below d=1 %d", two, one)
	}
}

func TestGeoMembershipChurnWithRebalance(t *testing.T) {
	g := newTestGeo(t, 32, 2, 2, 5)
	const m = 2048
	for i := 0; i < m; i++ {
		if _, err := g.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddServer("newcomer", geom.Vec{0.42, 0.42}); err != nil {
		t.Fatal(err)
	}
	moved := g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after join+rebalance: %v", err)
	}
	if moved < 1 {
		t.Fatal("join moved no keys")
	}
	victim := g.Loads()["dc-007"]
	if err := g.RemoveServer("dc-007"); err != nil {
		t.Fatal(err)
	}
	moved = g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after leave+rebalance: %v", err)
	}
	if int64(moved) < victim {
		t.Fatalf("moved %d < victim's %d keys", moved, victim)
	}
	if g.NumKeys() != m {
		t.Fatal("keys lost")
	}
	if _, ok := g.Loads()["dc-007"]; ok {
		t.Fatal("dead server still reported in Loads")
	}
	// Re-add at NEW coordinates: the slot revives, the site is fresh.
	if err := g.AddServer("dc-007", geom.Vec{0.9, 0.1}); err != nil {
		t.Fatalf("re-adding removed server: %v", err)
	}
	if at, ok := g.Location("dc-007"); !ok || at[0] != 0.9 || at[1] != 0.1 {
		t.Fatalf("Location = %v, %v", at, ok)
	}
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after re-add: %v", err)
	}
}

// TestGeoChurnStorm mirrors the hashring churn storm: a random op
// sequence with full invariant checks at every step, across the
// dimensions with specialized kernels and the generic kernel.
func TestGeoChurnStorm(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			g := newTestGeo(t, 8, dim, 2, uint64(40+dim))
			rr := rng.New(42)
			at := make(geom.Vec, dim)
			inserted, serverSeq := 0, 8
			for step := 0; step < 40; step++ {
				switch rr.Intn(3) {
				case 0:
					for j := range at {
						at[j] = rr.Float64()
					}
					if err := g.AddServer(fmt.Sprintf("extra-%d", serverSeq), at); err != nil {
						t.Fatal(err)
					}
					serverSeq++
					g.Rebalance()
				case 1:
					if g.NumServers() > 2 {
						for name := range g.Loads() {
							if err := g.RemoveServer(name); err != nil {
								t.Fatal(err)
							}
							break
						}
						g.Rebalance()
					}
				case 2:
					for k := 0; k < 25; k++ {
						if _, err := g.Place(fmt.Sprintf("storm-%d", inserted)); err != nil {
							t.Fatal(err)
						}
						inserted++
					}
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if g.NumKeys() != inserted {
				t.Fatalf("keys = %d, inserted %d", g.NumKeys(), inserted)
			}
			for i := 0; i < inserted; i++ {
				if _, err := g.Locate(fmt.Sprintf("storm-%d", i)); err != nil {
					t.Fatalf("lost key storm-%d: %v", i, err)
				}
			}
		})
	}
}

// TestGeoReadPathAllocs guards the zero-alloc serving path across the
// specialized (dim 2, 3) and generic (dim 1, 4) nearest kernels:
// Locate, the candidate resolution, and a steady-state Place/Remove
// cycle must not allocate on an unchanged membership.
func TestGeoReadPathAllocs(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			g := newTestGeo(t, 64, dim, 2, uint64(60+dim))
			for i := 0; i < 512; i++ {
				if _, err := g.Place(fmt.Sprintf("key-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, err := g.Locate("key-37"); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("Locate allocates %v per run; want 0", got)
			}
			snap := g.Snapshot()
			if got := testing.AllocsPerRun(200, func() {
				var cb [MaxChoices]int32
				snap.choose(snap.resolve("key-37", Hash('k', 0, "key-37"), &cb), nil, true)
			}); got != 0 {
				t.Errorf("candidate resolution allocates %v per run; want 0", got)
			}
			if _, err := g.Place("cycle"); err != nil {
				t.Fatal(err)
			}
			if err := g.Remove("cycle"); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, err := g.Place("cycle"); err != nil {
					t.Fatal(err)
				}
				if err := g.Remove("cycle"); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("Place/Remove cycle allocates %v per run; want 0", got)
			}
		})
	}
}

// TestGeoResolveMatchesNearest pins the candidate-resolution semantics:
// a key's candidates are exactly the sites nearest its decoded hash
// points, expressed as server slots.
func TestGeoResolveMatchesNearest(t *testing.T) {
	g := newTestGeo(t, 50, 3, 2, 9)
	snap := g.Snapshot()
	topo := snap.Topo.(*geoTopo)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("probe-%d", i)
		for j := 0; j < 2; j++ {
			h := Hash('k', j, key)
			p := make(geom.Vec, 3)
			state := h
			for a := range p {
				p[a] = UnitFloat(rng.SplitMix64(&state))
			}
			wantSite, _ := topo.space.NearestBrute(p)
			if got := topo.Resolve(h); got != topo.siteSlot[wantSite] {
				t.Fatalf("key %q choice %d: Resolve slot %d, brute site %d (slot %d)",
					key, j, got, wantSite, topo.siteSlot[wantSite])
			}
		}
	}
}

func BenchmarkGeoLocate(b *testing.B) {
	g := newTestGeo(b, 1024, 2, 2, 11)
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
		if _, err := g.Place(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Locate(keys[i&(len(keys)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeoPlaceRemove(b *testing.B) {
	g := newTestGeo(b, 1024, 2, 2, 12)
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
		if _, err := g.Place(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i&(len(keys)-1)]
		if err := g.Remove(key); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Place(key); err != nil {
			b.Fatal(err)
		}
	}
}
