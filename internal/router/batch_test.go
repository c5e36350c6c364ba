// Tests for the bulk serving path (pipeline.go). The load-bearing suite
// is the batch-vs-sequential matrix: two identically seeded routers,
// one driven by scalar calls and one by batches, must produce the same
// per-key outcomes, the same load vectors, and the same metrics across
// every combination of dimension, choice count, replication,
// bounded-load admission, and draining — the contract that lets batch
// call sites replace scalar loops without a semantic audit.
package router

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
	"geobalance/internal/metrics"
	"geobalance/internal/rng"
)

// batchKeys builds the matrix's key sequence: mostly fresh keys with a
// periodic repeat of an earlier key, so batches carry sticky-duplicate
// errors through the comparison too.
func batchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		if i > 40 && i%37 == 0 {
			keys[i] = keys[i-40] // duplicate of a key placed batches ago
		} else {
			keys[i] = fmt.Sprintf("bk-%d", i)
		}
	}
	return keys
}

// sameOutcome checks a scalar result against the batch result for the
// same key: success must agree on server and replica count, failure
// must agree on whether it was a bounded-load rejection.
func sameOutcome(t *testing.T, key string, srv string, n int, err error, got BatchResult) {
	t.Helper()
	if (err == nil) != (got.Err == nil) {
		t.Fatalf("key %q: scalar err %v, batch err %v", key, err, got.Err)
	}
	if err != nil {
		if errors.Is(err, ErrOverloaded) != errors.Is(got.Err, ErrOverloaded) {
			t.Fatalf("key %q: scalar err %v, batch err %v disagree on overload", key, err, got.Err)
		}
		return
	}
	if got.Server != srv || got.N != n {
		t.Fatalf("key %q: scalar placed on %s x%d, batch on %s x%d", key, srv, n, got.Server, got.N)
	}
}

// TestBatchMatchesSequentialMatrix is the pinning suite: across
// dim x d x replication x bounded-load x draining, a batch-driven
// router must trace exactly like a scalar-driven twin — every per-key
// outcome, the final load vector, the metrics counters, and the
// post-remove state.
func TestBatchMatchesSequentialMatrix(t *testing.T) {
	sizes := []int{1, 3, 17, 64} // batch sizes cycled over the key stream
	for _, dim := range []int{2, 3} {
		for _, d := range []int{2, 3} {
			for _, rep := range []int{1, 2} {
				for _, bound := range []float64{0, 1.25} {
					for _, drain := range []bool{false, true} {
						name := fmt.Sprintf("dim=%d/d=%d/r=%d/c=%v/drain=%v", dim, d, rep, bound, drain)
						t.Run(name, func(t *testing.T) {
							seed := uint64(100*dim + 10*d + rep)
							gs := newTestGeo(t, 24, dim, d, seed) // scalar-driven
							gb := newTestGeo(t, 24, dim, d, seed) // batch-driven
							ms := gs.Instrument(metrics.NewRegistry())
							mb := gb.Instrument(metrics.NewRegistry())
							for _, g := range []*Geo{gs, gb} {
								if rep > 1 {
									if err := g.SetReplication(rep); err != nil {
										t.Fatal(err)
									}
								}
								if drain {
									if err := g.SetDraining(g.Servers()[0], true); err != nil {
										t.Fatal(err)
									}
								}
								if bound > 0 {
									if err := g.SetBoundedLoad(bound); err != nil {
										t.Fatal(err)
									}
								}
							}

							keys := batchKeys(288)
							out := make([]BatchResult, len(keys))
							for a, si := 0, 0; a < len(keys); si++ {
								b := a + sizes[si%len(sizes)]
								if b > len(keys) {
									b = len(keys)
								}
								gb.PlaceBatch(keys[a:b], out[a:b])
								for i := a; i < b; i++ {
									srv, n, err := gs.PlaceReplicated(keys[i])
									sameOutcome(t, keys[i], srv, n, err, out[i])
								}
								a = b
							}
							if !reflect.DeepEqual(gs.Loads(), gb.Loads()) {
								t.Fatalf("loads diverge after placement:\nscalar %v\nbatch  %v", gs.Loads(), gb.Loads())
							}
							if gs.NumKeys() != gb.NumKeys() {
								t.Fatalf("NumKeys: scalar %d, batch %d", gs.NumKeys(), gb.NumKeys())
							}
							if ms.Places.Value() != mb.Places.Value() ||
								ms.Forwards.Value() != mb.Forwards.Value() ||
								ms.Rejects.Value() != mb.Rejects.Value() {
								t.Fatalf("metrics diverge: scalar places=%d forwards=%d rejects=%d, batch %d/%d/%d",
									ms.Places.Value(), ms.Forwards.Value(), ms.Rejects.Value(),
									mb.Places.Value(), mb.Forwards.Value(), mb.Rejects.Value())
							}

							// Lookup parity over the whole stream, misses included.
							gb.LocateBatch(keys, out)
							for i, key := range keys {
								srv, err := gs.Locate(key)
								if (err == nil) != (out[i].Err == nil) {
									t.Fatalf("Locate %q: scalar err %v, batch err %v", key, err, out[i].Err)
								}
								if err == nil && srv != out[i].Server {
									t.Fatalf("Locate %q: scalar %s, batch %s", key, srv, out[i].Server)
								}
							}
							if ms.Locates.Value() != mb.Locates.Value() {
								t.Fatalf("Locates counter: scalar %d, batch %d", ms.Locates.Value(), mb.Locates.Value())
							}

							// Removal parity: every other key (rejected keys turn
							// into not-placed errors on both sides).
							var rmKeys []string
							for i := 0; i < len(keys); i += 2 {
								rmKeys = append(rmKeys, keys[i])
							}
							rmOut := make([]BatchResult, len(rmKeys))
							gb.RemoveBatch(rmKeys, rmOut)
							for i, key := range rmKeys {
								err := gs.Remove(key)
								if (err == nil) != (rmOut[i].Err == nil) {
									t.Fatalf("Remove %q: scalar err %v, batch err %v", key, err, rmOut[i].Err)
								}
							}
							if !reflect.DeepEqual(gs.Loads(), gb.Loads()) {
								t.Fatalf("loads diverge after removal:\nscalar %v\nbatch  %v", gs.Loads(), gb.Loads())
							}
							if ms.Removes.Value() != mb.Removes.Value() {
								t.Fatalf("Removes counter: scalar %d, batch %d", ms.Removes.Value(), mb.Removes.Value())
							}
							for _, g := range []*Geo{gs, gb} {
								if err := g.CheckInvariants(); err != nil {
									t.Fatal(err)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestBatchScalarResolveFallback pins the fallback: against modTopo
// (router_test.go's stub, which has no block kernel), batches must
// still trace exactly like scalar calls.
func TestBatchScalarResolveFallback(t *testing.T) {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("m-%d", i)
	}
	rs := newModRouter(t, 3, names...)
	rb := newModRouter(t, 3, names...)
	if _, ok := rs.Snapshot().Topo.(BlockTopology); ok {
		t.Fatal("modTopo unexpectedly implements BlockTopology")
	}
	keys := batchKeys(200)
	out := make([]BatchResult, len(keys))
	rb.PlaceBatch(keys, out)
	for i, key := range keys {
		srv, err := rs.Place(key)
		sameOutcome(t, key, srv, 1, err, out[i])
	}
	if !reflect.DeepEqual(rs.Loads(), rb.Loads()) {
		t.Fatalf("loads diverge:\nscalar %v\nbatch  %v", rs.Loads(), rb.Loads())
	}
	rb.RemoveBatch(keys, out)
	for i, key := range keys {
		err := rs.Remove(key)
		if (err == nil) != (out[i].Err == nil) {
			t.Fatalf("Remove %q: scalar err %v, batch err %v", key, err, out[i].Err)
		}
	}
	if rs.NumKeys() != 0 || rb.NumKeys() != 0 {
		t.Fatalf("NumKeys after full removal: scalar %d, batch %d", rs.NumKeys(), rb.NumKeys())
	}
}

// TestBatchIntraBatchDuplicate: the same key twice in ONE batch places
// once and rejects the second occurrence, exactly like two sequential
// scalar calls.
func TestBatchIntraBatchDuplicate(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 9)
	keys := []string{"dup", "other", "dup"}
	out := make([]BatchResult, len(keys))
	g.PlaceBatch(keys, out)
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("fresh keys failed: %v / %v", out[0].Err, out[1].Err)
	}
	if out[2].Err == nil {
		t.Fatal("second occurrence of a key in the same batch placed twice")
	}
	if g.NumKeys() != 2 {
		t.Fatalf("NumKeys = %d, want 2", g.NumKeys())
	}
	var total int64
	for _, l := range g.Loads() {
		total += l
	}
	if total != 2 {
		t.Fatalf("loads sum to %d, want 2", total)
	}
}

// TestBatchNoServers: an empty router fails every key in the batch
// without touching state.
func TestBatchNoServers(t *testing.T) {
	r, err := New("empty", 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	out := make([]BatchResult, len(keys))
	r.PlaceBatch(keys, out)
	for i := range out {
		if out[i].Err == nil {
			t.Fatalf("key %q placed on an empty router", keys[i])
		}
	}
	if r.NumKeys() != 0 {
		t.Fatalf("NumKeys = %d on an empty router", r.NumKeys())
	}
}

// TestBatchJournaledRecovery covers the batch write-ahead contract end
// to end: batched placements and removals append one group commit per
// batch (not one fsync per key), appends after journal failure roll
// the whole batch back, and a recovered router reconstructs exactly
// the batch-built state.
func TestBatchJournaledRecovery(t *testing.T) {
	dir := t.TempDir()
	g := newTestGeo(t, 16, 2, 2, 77)
	jm := journal.NewMetrics(metrics.NewRegistry())
	lg, err := g.StartJournal(dir, journal.Options{Metrics: jm})
	if err != nil {
		t.Fatal(err)
	}
	a0, f0 := jm.Appends.Value(), jm.Fsyncs.Value()

	const batches, per = 8, 64
	keys := make([]string, batches*per)
	for i := range keys {
		keys[i] = fmt.Sprintf("jr-%d", i)
	}
	out := make([]BatchResult, per)
	for b := 0; b < batches; b++ {
		g.PlaceBatch(keys[b*per:(b+1)*per], out)
		for i := range out {
			if out[i].Err != nil {
				t.Fatal(out[i].Err)
			}
		}
	}
	g.RemoveBatch(keys[:per], out) // 1 more batch, 64 more records
	calls := int64(batches + 1)
	if got := jm.Appends.Value() - a0; got != int64(batches*per+per) {
		t.Fatalf("journal appends = %d, want %d", got, batches*per+per)
	}
	// The whole point of the batch commit: one fsync per batch call,
	// not one per key (single-threaded, so no cross-call group commit).
	if got := jm.Fsyncs.Value() - f0; got == 0 || got > calls {
		t.Fatalf("journal fsyncs = %d over %d batch calls, want 1 per call", got, calls)
	}

	wantLoads := g.Loads()
	wantKeys := g.NumKeys()
	owner := make(map[string]string, wantKeys)
	for _, key := range keys[per:] {
		srv, err := g.Locate(key)
		if err != nil {
			t.Fatal(err)
		}
		owner[key] = srv
	}

	// A dead journal must fail the batch atomically: every admitted key
	// rolled back, state unchanged.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := []string{"post-close-1", "post-close-2"}
	fout := make([]BatchResult, len(fresh))
	g.PlaceBatch(fresh, fout)
	for i := range fout {
		if fout[i].Err == nil {
			t.Fatalf("key %q placed past a closed journal", fresh[i])
		}
	}
	g.RemoveBatch(keys[per:2*per], out)
	for i := range out {
		if out[i].Err == nil {
			t.Fatalf("key %q removed past a closed journal", keys[per+i])
		}
	}
	if g.NumKeys() != wantKeys {
		t.Fatalf("NumKeys = %d after rolled-back batches, want %d", g.NumKeys(), wantKeys)
	}
	if !reflect.DeepEqual(g.Loads(), wantLoads) {
		t.Fatalf("loads changed across rolled-back batches:\nbefore %v\nafter  %v", wantLoads, g.Loads())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the batch-written records into the same state.
	g2, _, err := RecoverGeo(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Journal().Close()
	if g2.NumKeys() != wantKeys {
		t.Fatalf("recovered NumKeys = %d, want %d", g2.NumKeys(), wantKeys)
	}
	if !reflect.DeepEqual(g2.Loads(), wantLoads) {
		t.Fatalf("recovered loads diverge:\nwant %v\ngot  %v", wantLoads, g2.Loads())
	}
	rout := make([]BatchResult, len(keys)-per)
	g2.LocateBatch(keys[per:], rout)
	for i, key := range keys[per:] {
		if rout[i].Err != nil {
			t.Fatalf("recovered key %q lost: %v", key, rout[i].Err)
		}
		if rout[i].Server != owner[key] {
			t.Fatalf("recovered key %q on %s, was on %s", key, rout[i].Server, owner[key])
		}
	}
	if err := g2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGeoBatchRacingChurnRebalance is TestGeoRebalanceRacingTraffic's
// batch twin (runs under the CI -race job): batched place/locate/
// remove traffic hammered against back-to-back rebalances and
// membership flips, on the dim-3 torus so the brick batch kernel runs
// under race too.
func TestGeoBatchRacingChurnRebalance(t *testing.T) {
	g := newTestGeo(t, 12, 3, 2, 31)
	workers := runtime.GOMAXPROCS(0) + 2
	const batchesPerWorker, per = 60, 16
	var traffic, balancer sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, workers+1)

	balancer.Add(1)
	go func() {
		defer balancer.Done()
		cr := rng.New(55)
		at := make(geom.Vec, 3)
		for i := 0; !stop.Load(); i++ {
			if i%8 == 0 {
				name := fmt.Sprintf("flap-%d", i%3)
				at[0], at[1], at[2] = cr.Float64(), cr.Float64(), cr.Float64()
				if err := g.AddServer(name, at); err != nil {
					errc <- err
					return
				}
				g.Rebalance()
				if err := g.RemoveServer(name); err != nil {
					errc <- err
					return
				}
			}
			g.Rebalance()
		}
	}()

	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			keys := make([]string, per)
			out := make([]BatchResult, per)
			placed := make([]string, 0, batchesPerWorker*per)
			for b := 0; b < batchesPerWorker; b++ {
				for i := range keys {
					keys[i] = fmt.Sprintf("rb-w%d-b%d-k%d", w, b, i)
				}
				g.PlaceBatch(keys, out)
				for i := range out {
					if out[i].Err != nil {
						errc <- out[i].Err
						return
					}
				}
				placed = append(placed, keys...)
				g.LocateBatch(keys, out)
				for i := range out {
					if out[i].Err != nil {
						errc <- fmt.Errorf("key %q lost mid-rebalance: %w", keys[i], out[i].Err)
						return
					}
				}
				if b%4 == 3 {
					// Drop the oldest batch to keep removals in the mix.
					g.RemoveBatch(placed[:per], out)
					for i := range out {
						if out[i].Err != nil {
							errc <- out[i].Err
							return
						}
					}
					placed = placed[per:]
				}
			}
			fin := make([]BatchResult, len(placed))
			g.LocateBatch(placed, fin)
			for i := range fin {
				if fin[i].Err != nil {
					errc <- fmt.Errorf("retained key %q lost: %w", placed[i], fin[i].Err)
					return
				}
			}
		}(w)
	}

	traffic.Wait()
	stop.Store(true)
	balancer.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	g.Rebalance()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after racing batch traffic: %v", err)
	}
}

// TestBatchAllocFree pins the bulk path's steady-state guarantee: with
// the pooled scratch warm, a place/locate/remove batch cycle over
// fresh keys allocates nothing beyond the per-key result strings
// already accounted by the caller's out slice (i.e. zero).
func TestBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so the pooled scratch re-allocates")
	}
	g := newTestGeo(t, 64, 2, 3, 99)
	g.Instrument(metrics.NewRegistry())
	const per = 128
	keys := make([]string, per)
	for i := range keys {
		keys[i] = fmt.Sprintf("ba-%d", i)
	}
	out := make([]BatchResult, per)
	g.PlaceBatch(keys, out) // warm the pool and the shard maps
	g.RemoveBatch(keys, out)
	if avg := testing.AllocsPerRun(200, func() {
		g.PlaceBatch(keys, out)
		g.LocateBatch(keys, out)
		g.RemoveBatch(keys, out)
	}); avg != 0 {
		t.Errorf("batch place/locate/remove cycle allocates %.2f per cycle", avg)
	}
}
