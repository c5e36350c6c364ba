package hashring

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"geobalance/internal/journal"
	"geobalance/internal/rng"
	"geobalance/internal/router"
)

// restartTraffic is one worker's Place, PlaceBatch, LocateAny, Remove
// and RemoveBatch mix against r until stop is set. It returns the keys
// it still holds (every one acked placed, none acked removed) and the
// first failed call, on which it sets stop.
func restartTraffic(r *Ring, w int, stop *atomic.Bool, ops *atomic.Int64) ([]string, error) {
	rr := rng.NewStream(47, uint64(w))
	var (
		held []string
		next int
		out  = make([]router.BatchResult, 4)
	)
	fail := func(err error) ([]string, error) {
		stop.Store(true)
		return held, err
	}
	for !stop.Load() {
		ops.Add(1)
		switch op := rr.Intn(5); {
		case op <= 1: // Place, or PlaceBatch of four
			keys := make([]string, 1+3*op)
			for i := range keys {
				next++
				keys[i] = fmt.Sprintf("w%d-%d", w, next)
			}
			if op == 0 {
				_, out[0].Err = r.Place(keys[0])
			} else {
				r.PlaceBatch(keys, out)
			}
			for i := range keys {
				if out[i].Err != nil {
					return fail(out[i].Err)
				}
			}
			held = append(held, keys...)
		case len(held) == 0:
		case op == 2:
			if _, err := r.LocateAny(held[rr.Intn(len(held))]); err != nil {
				return fail(err)
			}
		case op == 3:
			i := rr.Intn(len(held))
			key := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			if err := r.Remove(key); err != nil {
				return fail(err)
			}
		default:
			n := min(4, len(held))
			keys := held[len(held)-n:]
			r.RemoveBatch(keys, out[:n])
			held = held[:len(held)-n]
			for i := range keys {
				if out[i].Err != nil {
					return fail(out[i].Err)
				}
			}
		}
	}
	return held, nil
}

// TestRingRestartUnderTraffic restarts a journaled ring in place three
// times, on a group-commit (fsync) journal, while four goroutines run
// the serving calls against it. No call may fail, the key set must be
// exactly the acked one, and the ring must pass its invariants after
// Repair and Rebalance.
func TestRingRestartUnderTraffic(t *testing.T) {
	r, err := New(serverNames(16), WithChoices(3), WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartJournal(t.TempDir(), journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer r.CloseJournal()
	const workers = 4
	var (
		stop atomic.Bool
		ops  atomic.Int64
		wg   sync.WaitGroup
		held = make([][]string, workers)
		errs = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held[w], errs[w] = restartTraffic(r, w, &stop, &ops)
		}(w)
	}
	for i := 0; i < 3 && !stop.Load(); i++ {
		for target := ops.Load() + 200; ops.Load() < target && !stop.Load(); {
			runtime.Gosched()
		}
		if _, err := r.Restart(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("restart %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	acked := 0
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		for _, key := range held[w] {
			if _, err := r.Locate(key); err != nil {
				t.Fatalf("acked key lost: %v", err)
			}
		}
		acked += len(held[w])
	}
	if r.NumKeys() != acked {
		t.Fatalf("ring holds %d keys, %d acked", r.NumKeys(), acked)
	}
	r.Repair()
	r.Rebalance()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRingRestartRefusals: a restart without a journal, or onto a
// journal of another kind, d or ring-position count, fails and leaves
// the ring as it was.
func TestRingRestartRefusals(t *testing.T) {
	r, err := New(serverNames(8), WithChoices(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := r.Place(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, n := r.Snapshot(), r.NumKeys()
	untouched := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("restart %s accepted", what)
		}
		if r.Snapshot() != snap || r.NumKeys() != n {
			t.Fatalf("refused restart %s changed the ring", what)
		}
	}
	opts := journal.Options{NoSync: true}
	_, err = r.Restart()
	untouched("without a journal", err)
	dir := t.TempDir()
	if _, err := r.StartJournal(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer r.CloseJournal()
	for _, hdr := range []journal.Header{
		{Kind: "geo", Dim: 2, D: 2},
		{Kind: "ring", D: 3, Replicas: 1},
		{Kind: "ring", D: 2, Replicas: 2},
	} {
		lg, err := journal.Create(dir, hdr, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = r.Restart()
		untouched(fmt.Sprintf("onto %+v", hdr), err)
	}
}

// TestRingMembershipOnlyThroughHandle: the membership, replay and
// journal-attachment methods of router.Membership are not reachable
// through a *Ring or its embedded *router.Router.
func TestRingMembershipOnlyThroughHandle(t *testing.T) {
	for _, name := range []string{"Update", "UpdateJournaled", "Replay", "SetJournal"} {
		if _, ok := reflect.TypeOf(&Ring{}).MethodByName(name); ok {
			t.Errorf("Ring has method %s", name)
		}
	}
}
