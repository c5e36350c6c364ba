package router

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/rng"
)

// TestFailoverRacingRebalance is the read-your-writes check for the
// replication layer: live Place/LocateAny/Remove traffic races a tight
// Rebalance loop, a migrator applying write-log batches, and a crasher
// that repeatedly kills a server without warning, repairs, and re-adds
// it. With r=2 and one crash at a time between repairs, a placed key
// always keeps at least one live replica, so every read a worker issues
// on its own keys must succeed throughout — the only tolerated error is
// ErrNoLiveReplica in the narrow window where a placement raced the
// crash itself, and Repair must heal even those. After the run a
// quiescent Repair + Rebalance must restore every invariant and every
// retained key must be locatable. Runs under the CI -race job.
func TestFailoverRacingRebalance(t *testing.T) {
	const servers = 12
	g := newTestGeo(t, servers, 2, 3, 20240807)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0) + 2
	const opsPerWorker = 1200
	var traffic, chaos sync.WaitGroup
	var stop atomic.Bool
	var transientNoReplica atomic.Int64
	errc := make(chan error, workers+3)

	// The rebalancer: back-to-back Rebalance so the key walk constantly
	// overlaps placements, repairs, and migration batches.
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for !stop.Load() {
			g.Rebalance()
		}
	}()

	// The migrator: keeps planning and applying bounded write-log
	// batches; racing traffic makes most deltas stale, which must be
	// skipped, never misapplied.
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for !stop.Load() {
			p := g.PlanMigration(64)
			for !p.Done() && !stop.Load() {
				p.ApplyBatch(16)
			}
		}
	}()

	// The crasher: kill one server with no drain and no migration, heal
	// with Repair, then bring it back at fresh coordinates — one victim
	// at a time, so r=2 always leaves a survivor.
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		cr := rng.NewStream(77, 1)
		for i := 0; !stop.Load(); i++ {
			victim := fmt.Sprintf("dc-%03d", i%servers)
			if err := g.RemoveServer(victim); err != nil {
				errc <- err
				return
			}
			g.Repair()
			at := geom.Vec{cr.Float64(), cr.Float64()}
			if err := g.AddServer(victim, at); err != nil {
				errc <- err
				return
			}
			g.Repair()
		}
	}()

	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rr := rng.NewStream(31, uint64(w))
			placed := make([]string, 0, opsPerWorker)
			for i := 0; i < opsPerWorker; i++ {
				switch rr.Intn(4) {
				case 0, 1:
					key := fmt.Sprintf("fr-w%d-k%d", w, i)
					if _, _, err := g.PlaceReplicated(key); err != nil {
						errc <- err
						return
					}
					placed = append(placed, key)
					// Read-your-writes: the key just placed must be
					// readable immediately, crash or no crash.
					if _, err := g.LocateAny(key); err != nil {
						if errors.Is(err, ErrNoLiveReplica) {
							transientNoReplica.Add(1)
						} else {
							errc <- fmt.Errorf("read-your-writes broken for %q: %w", key, err)
							return
						}
					}
				case 2:
					if len(placed) > 0 {
						key := placed[rr.Intn(len(placed))]
						if _, err := g.LocateAny(key); err != nil {
							if errors.Is(err, ErrNoLiveReplica) {
								transientNoReplica.Add(1)
							} else {
								errc <- fmt.Errorf("key %q lost mid-failover: %w", key, err)
								return
							}
						}
					}
				case 3:
					if len(placed) > 0 {
						key := placed[len(placed)-1]
						placed = placed[:len(placed)-1]
						if err := g.Remove(key); err != nil {
							errc <- err
							return
						}
					}
				}
			}
			for _, key := range placed {
				if _, err := g.LocateAny(key); err != nil && !errors.Is(err, ErrNoLiveReplica) {
					errc <- fmt.Errorf("retained key %q lost: %w", key, err)
					return
				}
			}
		}(w)
	}

	traffic.Wait()
	stop.Store(true)
	chaos.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := transientNoReplica.Load(); n > 0 {
		t.Logf("%d reads hit the placement-vs-crash window (healed below)", n)
	}
	// Quiescence: Repair heals crash damage, Rebalance re-conforms
	// anything a racing placement left behind, then everything must
	// hold and every key must be readable with zero errors.
	g.Repair()
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after racing failover: %v", err)
	}
	for key := range g.records() {
		if _, err := g.LocateAny(key); err != nil {
			t.Fatalf("key %q unreadable at quiescence: %v", key, err)
		}
	}
}
