package router

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"geobalance/internal/geom"
	"geobalance/internal/journal"
)

// churnGeo drives every journaled mutation kind against g: replicated
// and plain placements, removals, capacity changes, draining, a server
// death with repair, rebalancing, and bounded-load toggling. Returns
// the set of keys that should survive.
func churnGeo(t *testing.T, g *Geo) map[string]bool {
	t.Helper()
	if err := g.SetReplication(2); err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if _, _, err := g.PlaceReplicated(k); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	for i := 0; i < 120; i += 5 {
		k := fmt.Sprintf("key-%03d", i)
		if err := g.Remove(k); err != nil {
			t.Fatal(err)
		}
		delete(live, k)
	}
	if err := g.SetCapacity("srv-1", 3.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDraining("srv-2", true); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveServer("srv-3"); err != nil {
		t.Fatal(err)
	}
	if _, lost := g.Repair(); lost != 0 {
		t.Fatalf("repair lost %d keys", lost)
	}
	g.Rebalance()
	if err := g.SetBoundedLoad(8); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 220; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if _, _, err := g.PlaceReplicated(k); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	return live
}

// assertGeoEqual asserts that b is state-for-state identical to a:
// membership, locations, loads, policy knobs, and the owner set of
// every surviving key.
func assertGeoEqual(t *testing.T, a, b *Geo, keys map[string]bool) {
	t.Helper()
	if got, want := b.NumKeys(), a.NumKeys(); got != want {
		t.Fatalf("NumKeys = %d, want %d", got, want)
	}
	if got, want := fmt.Sprint(b.Servers()), fmt.Sprint(a.Servers()); got != want {
		t.Fatalf("Servers = %s, want %s", got, want)
	}
	if got, want := b.Replication(), a.Replication(); got != want {
		t.Fatalf("Replication = %d, want %d", got, want)
	}
	if got, want := b.BoundedLoad(), a.BoundedLoad(); got != want {
		t.Fatalf("BoundedLoad = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(b.Loads()), fmt.Sprint(a.Loads()); got != want {
		t.Fatalf("Loads = %s, want %s", got, want)
	}
	for _, name := range a.Servers() {
		wa, _ := a.Location(name)
		wb, ok := b.Location(name)
		if !ok || fmt.Sprint(wa) != fmt.Sprint(wb) {
			t.Fatalf("Location(%s) = %v ok=%v, want %v", name, wb, ok, wa)
		}
	}
	var oa, ob []string
	for k := range keys {
		var err error
		if oa, err = a.Owners(k, oa[:0]); err != nil {
			t.Fatalf("original Owners(%s): %v", k, err)
		}
		if ob, err = b.Owners(k, ob[:0]); err != nil {
			t.Fatalf("recovered Owners(%s): %v", k, err)
		}
		if fmt.Sprint(oa) != fmt.Sprint(ob) {
			t.Fatalf("Owners(%s) = %v, want %v", k, ob, oa)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("recovered invariants: %v", err)
	}
}

// TestGeoJournalRecoveryRoundTrip runs the full mutation mix against a
// journaled torus router, recovers from the journal, and asserts the
// recovered router is state-for-state identical — then appends through
// the recovered journal and recovers once more to prove the log stays
// writable across generations.
func TestGeoJournalRecoveryRoundTrip(t *testing.T) {
	g := newTestGeo(t, 12, 2, 3, 7)
	// newTestGeo names servers s0..; rename via fresh build instead: add
	// the churn targets explicitly so churnGeo's names exist.
	for i := 0; i < 4; i++ {
		if err := g.AddServerWithCapacity(fmt.Sprintf("srv-%d", i), geom.Vec{0.1 * float64(i+1), 0.2}, 1+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := churnGeo(t, g)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	g2, rec, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Kind != "geo" || rec.Header.Dim != 2 || rec.Header.D != 3 {
		t.Fatalf("recovered header = %+v", rec.Header)
	}
	if rec.WALRecords == 0 {
		t.Fatal("expected WAL records from churn")
	}
	assertGeoEqual(t, g, g2, keys)

	// Generation 2: the recovered journal must accept appends.
	if _, _, err := g2.PlaceReplicated("gen2-key"); err != nil {
		t.Fatal(err)
	}
	if err := g2.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	g3, _, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Locate("gen2-key"); err != nil {
		t.Fatalf("gen2 key lost across second recovery: %v", err)
	}
	keys["gen2-key"] = true
	assertGeoEqual(t, g2, g3, keys)
}

// TestGeoJournalRefusesUnreadableKey: on a journaled Geo, a Place or
// PlaceBatch of a key the journal could not read back (70000 bytes,
// past its 65536-byte string bound) fails with journal.ErrInvalidEntry
// and is not placed, while the batch's other keys are placed, later
// placements succeed, and the journal recovers a router equal to the
// live one.
func TestGeoJournalRefusesUnreadableKey(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 17)
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	place := func(k string) {
		t.Helper()
		if _, err := g.Place(k); err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	for i := 0; i < 32; i++ {
		place(fmt.Sprintf("key-%02d", i))
	}
	long := strings.Repeat("x", 70000)
	n := g.NumKeys()
	if _, err := g.Place(long); !errors.Is(err, journal.ErrInvalidEntry) {
		t.Fatalf("Place of a %d-byte key = %v, want journal.ErrInvalidEntry", len(long), err)
	}
	batch := []string{"batch-ok", long, "batch-ok-2"}
	out := make([]BatchResult, len(batch))
	g.PlaceBatch(batch, out)
	for i, k := range batch {
		switch {
		case k == long && !errors.Is(out[i].Err, journal.ErrInvalidEntry):
			t.Fatalf("PlaceBatch result for the long key = %v, want journal.ErrInvalidEntry", out[i].Err)
		case k != long && out[i].Err != nil:
			t.Fatalf("PlaceBatch result for %q = %v, want it placed", k, out[i].Err)
		case k != long:
			keys[k] = true
		}
	}
	if got := g.NumKeys(); got != n+2 {
		t.Fatalf("NumKeys = %d after the batch, want %d", got, n+2)
	}
	if _, err := g.Locate(long); err == nil {
		t.Fatal("the refused long key is placed")
	}
	place("after")
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	g2, _, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("RecoverGeo after a refused key: %v", err)
	}
	defer g2.Journal().Close()
	assertGeoEqual(t, g, g2, keys)
}

// TestStartJournalRefusesUnreadableKey: StartJournal on a Geo already
// holding a key the journal could not read back fails with
// journal.ErrInvalidEntry instead of writing an unreadable snapshot,
// and leaves the router without a journal.
func TestStartJournalRefusesUnreadableKey(t *testing.T) {
	g := newTestGeo(t, 8, 2, 2, 19)
	if _, err := g.Place(strings.Repeat("x", 70000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.StartJournal(dir, journal.Options{NoSync: true}); !errors.Is(err, journal.ErrInvalidEntry) {
		t.Fatalf("StartJournal = %v, want journal.ErrInvalidEntry", err)
	}
	if g.Journal() != nil {
		t.Fatal("a journal is attached after the refused StartJournal")
	}
	if _, _, err := RecoverGeo(dir, journal.Options{NoSync: true}); err == nil {
		t.Fatal("RecoverGeo found a journal the refused StartJournal should not have written")
	}
}

// TestGeoJournalCompaction compacts mid-churn and asserts recovery
// equality plus the physical effect: the WAL shrinks to its magic and
// pre-compaction records are absorbed into the snapshot.
func TestGeoJournalCompaction(t *testing.T) {
	g := newTestGeo(t, 8, 2, 3, 11)
	for i := 0; i < 4; i++ {
		if err := g.AddServerWithCapacity(fmt.Sprintf("srv-%d", i), geom.Vec{0.3, 0.1 * float64(i+1)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := churnGeo(t, g)
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	before := lg.WALSize()
	if err := g.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if lg.WALSize() >= before {
		t.Fatalf("WAL did not shrink: %d -> %d", before, lg.WALSize())
	}
	// Post-compaction mutations land in the fresh WAL.
	if _, _, err := g.PlaceReplicated("post-compact"); err != nil {
		t.Fatal(err)
	}
	keys["post-compact"] = true
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	g2, rec, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN == 0 {
		t.Fatal("expected a compacted snapshot LSN")
	}
	assertGeoEqual(t, g, g2, keys)
}

// TestJournalMembershipOrdering pins the write-ahead ordering contract:
// a membership change appends at once, before any placement routed
// against the new topology, so replay never sees a key pointing at a
// slot the log hasn't introduced yet. Placements are staged on their
// key shards' journal stripes instead, so the ones made before an
// AddServer or RemoveServer are framed after it; recovery must still
// rebuild the same state, each key's records in order.
func TestJournalMembershipOrdering(t *testing.T) {
	g := newTestGeo(t, 4, 2, 2, 13)
	dir := t.TempDir()
	lg, err := g.StartJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	place := func(prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%s%d", prefix, i)
			if _, err := g.Place(k); err != nil {
				t.Fatal(err)
			}
			keys[k] = true
		}
	}
	place("early", 30)
	if err := g.AddServer("late", geom.Vec{0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	place("k", 40)
	if err := g.RemoveServer("dc-000"); err != nil {
		t.Fatal(err)
	}
	g.Repair() // re-homes the keys dc-000 held: their updates follow their placements
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.ScanWAL(lg.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0].Entry.Op != journal.OpAddServer || recs[0].Entry.Name != "late" ||
		recs[1].Entry.Op != journal.OpRemoveServer || recs[1].Entry.Name != "dc-000" {
		t.Fatalf("first WAL records = %+v, want the AddServer(late) and RemoveServer(dc-000) membership appends", recs[:min(2, len(recs))])
	}
	early := 0
	for i := 2; i < len(recs); i++ {
		switch e := recs[i].Entry; {
		case e.Op == journal.OpAddServer || e.Op == journal.OpRemoveServer:
			t.Fatalf("unexpected extra membership record at %d", i)
		case e.Op == journal.OpPlace && strings.HasPrefix(e.Name, "early"):
			early++
		}
	}
	if early != 30 {
		t.Fatalf("%d of the 30 early placements framed after the membership records that followed them", early)
	}
	g2, _, err := RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Journal().Close()
	assertGeoEqual(t, g, g2, keys)
}

// TestJournalOnPlaceAllocs guards the durable write path: with a
// NoSync journal attached, a Place or Remove stages its record in its
// stripe's buffer, which the log frames into its own buffer, both
// reused, so the steady-state cycle stays allocation-free.
func TestJournalOnPlaceAllocs(t *testing.T) {
	g := newTestGeo(t, 16, 2, 3, 17)
	lg, err := g.StartJournal(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	cycle := func() {
		if _, err := g.Place("cycle"); err != nil {
			t.Fatal(err)
		}
		if err := g.Remove("cycle"); err != nil {
			t.Fatal(err)
		}
	}
	// Grow both buffers to their working size first: the stripe frames
	// past 16 KiB and the log writes past 256 KiB.
	for i := 0; i < 20000; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(2000, cycle); got != 0 {
		t.Errorf("journaled Place/Remove cycle allocates %v per run; want 0", got)
	}
}

// TestJournalOffPlaceAllocs guards the durability-off fast path: with
// no journal attached the added hook is one atomic nil-check, and the
// steady-state Place/Remove cycle must stay allocation-free.
func TestJournalOffPlaceAllocs(t *testing.T) {
	g := newTestGeo(t, 16, 2, 3, 17)
	if _, err := g.Place("cycle"); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove("cycle"); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(2000, func() {
		if _, err := g.Place("cycle"); err != nil {
			t.Fatal(err)
		}
		if err := g.Remove("cycle"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("journal-off Place/Remove cycle allocates %v per run; want 0", got)
	}
}

// TestRecoverGeoRejectsRingJournal pins the kind check.
func TestRecoverGeoRejectsRingJournal(t *testing.T) {
	dir := t.TempDir()
	lg, err := journal.Create(dir, journal.Header{Kind: "ring", D: 2, Replicas: 1}, nil, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverGeo(dir, journal.Options{}); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

// BenchmarkGeoPlaceRemoveJournaled is BenchmarkGeoPlaceRemove with a
// NoSync journal attached: the cost of staging two WAL records per
// cycle on a key shard's stripe. The log is compacted off the clock so
// the WAL stays small at large b.N.
func BenchmarkGeoPlaceRemoveJournaled(b *testing.B) {
	g := newTestGeo(b, 1024, 2, 2, 12)
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
		if _, err := g.Place(keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	lg, err := g.StartJournal(b.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer lg.Close()
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
		if i&(1<<17-1) == 1<<17-1 {
			b.StopTimer()
			if err := g.CompactJournal(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
