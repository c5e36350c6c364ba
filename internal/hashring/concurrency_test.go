package hashring

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geobalance/internal/rng"
	"geobalance/internal/router"
)

// checkSnapshot asserts the structural invariants every published
// topology must satisfy, regardless of when a reader loads it: a
// consistent point set (live*replicas sorted points, all owned by live
// servers) and coherent slot tables. Readers racing membership churn
// call this on freshly loaded snapshots to prove no half-applied
// change is ever visible.
func checkSnapshot(s *router.Snapshot) error {
	if len(s.Names) != len(s.Caps) || len(s.Names) != len(s.Dead) ||
		len(s.Names) != len(s.Loads) {
		return fmt.Errorf("slot tables disagree: %d servers, %d caps, %d dead, %d loads",
			len(s.Names), len(s.Caps), len(s.Dead), len(s.Loads))
	}
	live := 0
	for _, d := range s.Dead {
		if !d {
			live++
		}
	}
	if live != s.Live {
		return fmt.Errorf("live = %d, dead table says %d", s.Live, live)
	}
	t, _ := s.Topo.(*ringTopo)
	if s.Live == 0 {
		if t != nil && t.points != nil {
			return fmt.Errorf("empty ring with %d points", t.points.Len())
		}
		return nil
	}
	if t == nil || t.points == nil || t.points.Len() != s.Live*t.replicas {
		return fmt.Errorf("point count != live %d * replicas", s.Live)
	}
	if len(t.bits) != t.points.Len()+1 || len(t.owner) != t.points.Len() {
		return fmt.Errorf("bits/owner length mismatch")
	}
	for i := 1; i < len(t.bits)-1; i++ {
		if t.bits[i-1] > t.bits[i] {
			return fmt.Errorf("points unsorted at %d", i)
		}
	}
	for _, o := range t.owner {
		if int(o) >= len(s.Names) || s.Dead[o] {
			return fmt.Errorf("point owned by dead or invalid slot %d", o)
		}
	}
	return nil
}

// TestSnapshotConsistencyUnderChurn races membership churn against
// readers that validate every snapshot they load and resolve lookups
// against it. Run under -race this also proves the copy-on-write path
// publishes only fully built topologies.
func TestSnapshotConsistencyUnderChurn(t *testing.T) {
	r, err := New(serverNames(16), WithChoices(2), WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var readers, churn sync.WaitGroup
	errc := make(chan error, 16)

	// Churner: add and remove extra servers, occasionally rebalancing,
	// paced so readers make progress even on one CPU.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			name := fmt.Sprintf("churn-%d", i%8)
			if err := r.AddServer(name); err != nil {
				errc <- err
				return
			}
			if i%4 == 0 {
				r.Rebalance()
			}
			if err := r.RemoveServer(name); err != nil {
				errc <- err
				return
			}
			if i%16 == 15 {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	nReaders := runtime.GOMAXPROCS(0) + 2
	for w := 0; w < nReaders; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			rr := rng.NewStream(99, uint64(w))
			for i := 0; i < 3000; i++ {
				snap := r.rt.Snapshot()
				if err := checkSnapshot(snap); err != nil {
					errc <- fmt.Errorf("reader %d iter %d: %w", w, i, err)
					return
				}
				// Resolve a lookup wholly against this snapshot: the d
				// candidates must all be live in it.
				key := fmt.Sprintf("key-%d", rr.Intn(4096))
				for j := 0; j < snap.D; j++ {
					s := snap.Topo.Resolve(router.Hash('k', j, key))
					if snap.Dead[s] {
						errc <- fmt.Errorf("reader %d: candidate on dead server", w)
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	stop.Store(true)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentTrafficWithChurn races Place/Locate/Remove traffic from
// many goroutines against membership churn, then checks global
// invariants after a final Rebalance.
func TestConcurrentTrafficWithChurn(t *testing.T) {
	r, err := New(serverNames(8), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0) + 3
	const opsPerWorker = 2000
	var traffic, churn sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, workers+1)

	churn.Add(1)
	go func() { // churner: paced so it doesn't starve the traffic goroutines
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			name := fmt.Sprintf("flaky-%d", i%4)
			if err := r.AddServer(name); err != nil {
				errc <- err
				return
			}
			r.Rebalance()
			if err := r.RemoveServer(name); err != nil {
				errc <- err
				return
			}
			r.Rebalance()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rr := rng.NewStream(7, uint64(w))
			placed := make([]string, 0, opsPerWorker)
			for i := 0; i < opsPerWorker; i++ {
				switch rr.Intn(3) {
				case 0:
					key := fmt.Sprintf("w%d-k%d", w, i)
					if _, err := r.Place(key); err != nil {
						errc <- err
						return
					}
					placed = append(placed, key)
				case 1:
					if len(placed) > 0 {
						key := placed[rr.Intn(len(placed))]
						if _, err := r.Locate(key); err != nil {
							errc <- fmt.Errorf("lost key %q: %w", key, err)
							return
						}
					}
				case 2:
					if len(placed) > 0 {
						key := placed[len(placed)-1]
						placed = placed[:len(placed)-1]
						if err := r.Remove(key); err != nil {
							errc <- err
							return
						}
					}
				}
			}
			for _, key := range placed { // everything we kept must resolve
				if _, err := r.Locate(key); err != nil {
					errc <- fmt.Errorf("lost key %q: %w", key, err)
					return
				}
			}
		}(w)
	}

	// Wait for traffic first, then stop the churner so the final state
	// is quiescent.
	traffic.Wait()
	stop.Store(true)
	churn.Wait()

	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	r.Rebalance()
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after concurrent churn: %v", err)
	}
}

// TestConcurrentPlaceDistinctKeys checks that racing placements neither
// lose nor double-count keys.
func TestConcurrentPlaceDistinctKeys(t *testing.T) {
	r, err := New(serverNames(32), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	workers := 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := r.Place(fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if r.NumKeys() != workers*perWorker {
		t.Fatalf("NumKeys = %d, want %d", r.NumKeys(), workers*perWorker)
	}
	var total int64
	for _, l := range r.Loads() {
		total += l
	}
	if total != int64(workers*perWorker) {
		t.Fatalf("loads sum to %d, want %d", total, workers*perWorker)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDuplicatePlace races many goroutines placing the SAME
// key: exactly one must win.
func TestConcurrentDuplicatePlace(t *testing.T) {
	r, err := New(serverNames(8))
	if err != nil {
		t.Fatal(err)
	}
	var wins atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Place("contested"); err == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d placements of the same key succeeded", wins.Load())
	}
	if r.NumKeys() != 1 {
		t.Fatalf("NumKeys = %d", r.NumKeys())
	}
}

// TestReadPathAllocs guards the zero-alloc read path: Locate on a
// placed key, the d-choice candidate resolution, and a steady-state
// Place/Remove cycle must not allocate.
func TestReadPathAllocs(t *testing.T) {
	r, err := New(serverNames(64), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if _, err := r.Place(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := r.Locate("key-37"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Locate allocates %v per run; want 0", got)
	}
	snap := r.rt.Snapshot()
	if got := testing.AllocsPerRun(200, func() {
		for j := 0; j < snap.D; j++ {
			snap.Topo.Resolve(router.Hash('k', j, "key-37"))
		}
	}); got != 0 {
		t.Errorf("candidate resolution allocates %v per run; want 0", got)
	}
	// Steady-state cycle: the key's map cell is reused, so no growth.
	if _, err := r.Place("cycle"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("cycle"); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := r.Place("cycle"); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove("cycle"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Place/Remove cycle allocates %v per run; want 0", got)
	}
}

// FuzzMembershipOps drives the ring through arbitrary op sequences and
// checks the invariants after every membership change + rebalance.
func FuzzMembershipOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 2, 2, 0, 1, 3, 3, 5, 4, 0})
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 5, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r, err := New(serverNames(4), WithChoices(2))
		if err != nil {
			t.Fatal(err)
		}
		nextServer, nextKey := 4, 0
		var live, placed []string
		live = append(live, serverNames(4)...)
		for _, op := range ops {
			switch op % 6 {
			case 0: // add server
				name := fmt.Sprintf("fuzz-%d", nextServer)
				nextServer++
				if err := r.AddServer(name); err != nil {
					t.Fatal(err)
				}
				live = append(live, name)
			case 1: // remove first live server
				if len(live) > 1 {
					if err := r.RemoveServer(live[0]); err != nil {
						t.Fatal(err)
					}
					live = live[1:]
				}
			case 2: // place a key
				key := fmt.Sprintf("key-%d", nextKey)
				nextKey++
				if _, err := r.Place(key); err != nil {
					t.Fatal(err)
				}
				placed = append(placed, key)
			case 3: // remove oldest key
				if len(placed) > 0 {
					if err := r.Remove(placed[0]); err != nil {
						t.Fatal(err)
					}
					placed = placed[1:]
				}
			case 4: // set a capacity
				if err := r.SetCapacity(live[len(live)-1], 2.5); err != nil {
					t.Fatal(err)
				}
			case 5: // rebalance + full invariant check
				r.Rebalance()
				if err := r.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if err := checkSnapshot(r.rt.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		r.Rebalance()
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if r.NumKeys() != len(placed) {
			t.Fatalf("NumKeys = %d, want %d", r.NumKeys(), len(placed))
		}
		for _, key := range placed {
			if _, err := r.Locate(key); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// The parallel Locate benchmark lives at the repository level
// (BenchmarkHashRingLocateParallel in bench_test.go) and feeds the
// cmd/benchjson regression records; only the write-path parallel
// benchmark is kept in-package.

// BenchmarkPlaceRemoveParallel measures concurrent write traffic: each
// goroutine cycles Place/Remove over its own pre-generated keys.
func BenchmarkPlaceRemoveParallel(b *testing.B) {
	r, err := New(serverNames(1024), WithChoices(2))
	if err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("w%d-%d", w, i)
		}
		i := 0
		for pb.Next() {
			key := keys[i&255]
			if i&1 == 0 {
				if _, err := r.Place(key); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := r.Remove(key); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}
