package router

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
	"geobalance/internal/rng"
)

// restartTraffic is one worker's Place, PlaceBatch, LocateAny, Remove
// and RemoveBatch mix against g until stop is set. It returns the keys
// it still holds (every one acked placed, none acked removed) and the
// first failed call, on which it sets stop.
func restartTraffic(g *Geo, w int, stop *atomic.Bool, ops *atomic.Int64) ([]string, error) {
	r := rng.NewStream(43, uint64(w))
	var (
		held []string
		next int
		out  = make([]BatchResult, 4)
	)
	fail := func(err error) ([]string, error) {
		stop.Store(true)
		return held, err
	}
	for !stop.Load() {
		ops.Add(1)
		switch op := r.Intn(5); {
		case op <= 1: // Place, or PlaceBatch of four
			keys := make([]string, 1+3*op)
			for i := range keys {
				next++
				keys[i] = fmt.Sprintf("w%d-%d", w, next)
			}
			if op == 0 {
				_, out[0].Err = g.Place(keys[0])
			} else {
				g.PlaceBatch(keys, out)
			}
			for i := range keys {
				if out[i].Err != nil {
					return fail(out[i].Err)
				}
			}
			held = append(held, keys...)
		case len(held) == 0:
		case op == 2:
			if _, err := g.LocateAny(held[r.Intn(len(held))]); err != nil {
				return fail(err)
			}
		case op == 3:
			i := r.Intn(len(held))
			key := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			if err := g.Remove(key); err != nil {
				return fail(err)
			}
		default:
			n := min(4, len(held))
			keys := held[len(held)-n:]
			g.RemoveBatch(keys, out[:n])
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

// TestRestartUnderTraffic restarts a journaled router in place three
// times while four goroutines run the serving calls against it. No
// call may fail, the key set must be exactly the acked one, and the
// router must pass its invariants after Repair and Rebalance.
func TestRestartUnderTraffic(t *testing.T) {
	g := newTestGeo(t, 24, 2, 3, 41)
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	opts := journal.Options{NoSync: true}
	if _, err := g.StartJournal(t.TempDir(), opts); err != nil {
		t.Fatal(err)
	}
	defer g.CloseJournal()
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
			held[w], errs[w] = restartTraffic(g, w, &stop, &ops)
		}(w)
	}
	for i := 0; i < 3 && !stop.Load(); i++ {
		for target := ops.Load() + 500; ops.Load() < target && !stop.Load(); {
			runtime.Gosched()
		}
		rec, err := g.Restart()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("restart %d: %v", i, err)
		}
		if len(rec.Entries) == 0 {
			t.Errorf("restart %d replayed nothing", i)
		}
		if got := g.Journal().Options(); got != opts {
			t.Errorf("restart %d: journal options %+v, want %+v", i, got, opts)
		}
	}
	stop.Store(true)
	wg.Wait()
	var acked []string
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		acked = append(acked, held[w]...)
	}
	var got []string
	for i := range g.keys {
		for key := range g.keys[i].m {
			got = append(got, key)
		}
	}
	slices.Sort(acked)
	slices.Sort(got)
	if !slices.Equal(got, acked) || g.NumKeys() != len(acked) {
		t.Fatalf("router holds %d keys (NumKeys %d), %d acked", len(got), g.NumKeys(), len(acked))
	}
	g.Repair()
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRefusals: a restart without a journal, or onto a journal
// of another kind, dimension or d, fails and leaves the router as it
// was; a restart onto its own journal then succeeds.
func TestRestartRefusals(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 5)
	for i := 0; i < 60; i++ {
		if _, err := g.Place(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, n := g.Snapshot(), g.NumKeys()
	untouched := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("restart %s accepted", what)
		}
		if g.Snapshot() != snap || g.NumKeys() != n {
			t.Fatalf("refused restart %s changed the router", what)
		}
	}
	opts := journal.Options{NoSync: true}
	_, err := g.Restart()
	untouched("without a journal", err)
	dir := t.TempDir()
	if _, err := g.StartJournal(dir, opts); err != nil {
		t.Fatal(err)
	}
	for _, hdr := range []journal.Header{
		{Kind: "ring", D: 2, Replicas: 1},
		{Kind: "geo", Dim: 3, D: 2},
		{Kind: "geo", Dim: 2, D: 3},
	} {
		lg, err := journal.Create(dir, hdr, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = g.Restart()
		untouched(fmt.Sprintf("onto %+v", hdr), err)
	}
	if err := g.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.StartJournal(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer g.CloseJournal()
	if _, err := g.Restart(); err != nil {
		t.Fatal(err)
	}
	if g.NumKeys() != n {
		t.Fatalf("restart recovered %d keys, want %d", g.NumKeys(), n)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRacingClose: a CompactJournal queued behind a
// CloseJournal finds no journal attached; it must not compact the log
// the close has just shut. The test holds the writer mutex so both
// calls queue on it, the close first.
func TestCompactRacingClose(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 7)
	if _, err := g.StartJournal(t.TempDir(), journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	closed, compacted := make(chan error), make(chan error)
	g.mu.Lock()
	go func() { closed <- g.CloseJournal() }()
	time.Sleep(20 * time.Millisecond)
	go func() { compacted <- g.CompactJournal() }()
	time.Sleep(20 * time.Millisecond)
	g.mu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-compacted; err != nil && !strings.Contains(err.Error(), "no journal attached") {
		t.Fatalf("compact queued behind close: %v", err)
	}
}

// TestMembershipOnlyThroughHandle pins the facade boundary: the
// membership, replay and journal-attachment methods live on the
// Membership handle, so neither the Router nor a facade embedding it
// reaches them.
func TestMembershipOnlyThroughHandle(t *testing.T) {
	handle := []string{"Update", "UpdateJournaled", "Replay", "SetJournal"}
	for _, name := range append(handle, "StartJournal", "CompactJournal", "Restart") {
		if _, ok := reflect.TypeOf(&Router{}).MethodByName(name); ok {
			t.Errorf("Router has method %s", name)
		}
	}
	for _, name := range handle {
		if _, ok := reflect.TypeOf(&Geo{}).MethodByName(name); ok {
			t.Errorf("Geo has method %s", name)
		}
	}
}

// TestCheckFirstStepAgrees: check's first step resolves only the
// recorded choices and may accept a record on its own. Through joins,
// crashes, drains, replication changes and the passes that repair
// them, it must never accept a record that the full check (every
// candidate resolved and chosen, then checkChoice) rejects.
func TestCheckFirstStepAgrees(t *testing.T) {
	g := newTestGeo(t, 16, 2, 4, 51)
	for i := 0; i < 800; i++ {
		if _, err := g.Place(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"join", func() error { return g.AddServer("join", geom.Vec{0.31, 0.77}) }},
		{"replication up", func() error { return g.SetReplication(3) }},
		{"crash", func() error { return g.RemoveServer("dc-003") }},
		{"repair", func() error { g.Repair(); return nil }},
		{"drain", func() error { return g.SetDraining("dc-005", true) }},
		{"rebalance", func() error { g.Rebalance(); return nil }},
		{"undrain", func() error { return g.SetDraining("dc-005", false) }},
		{"replication down", func() error { return g.SetReplication(2) }},
		{"crash", func() error { return g.RemoveServer("join") }},
		{"rebalance", func() error { g.Rebalance(); return nil }},
	}
	var (
		cb       [MaxChoices]int32
		accepted int
	)
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		s := g.Snapshot()
		for i := range g.keys {
			for key, rec := range g.keys[i].m {
				h0 := Hash('k', 0, key)
				if cands, _, err := s.check(key, h0, rec, nil, &cb); err != nil || cands != nil {
					continue
				}
				accepted++
				full, _, _ := s.choose(s.resolve(key, h0, &cb), nil, false)
				if err := s.checkChoice(key, rec, full); err != nil {
					t.Fatalf("after %s: first step accepted a record the full check rejects: %v", step.name, err)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("the first step decided no record")
	}
}
