package crashtest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geobalance/internal/journal"
	"geobalance/internal/router"
)

const walMagicLen = 8

// expectedKeys replays the key-visible effect of the WAL records whose
// frames end at or before cut: OpPlace introduces a key, OpRemoveKey
// retires it, everything else leaves the set alone. Because Script
// attaches the journal before the first placement, this is the exact
// set of keys a recovery from that prefix must serve — no fewer (lost)
// and no more (resurrected).
func expectedKeys(recs []journal.RecordPos, cut int64) map[string]bool {
	return replayKeys(nil, recs, cut)
}

// replayKeys applies the prefix to a copy of base (the snapshot-held
// key set; nil for a snapshot taken before any placement).
func replayKeys(base map[string]bool, recs []journal.RecordPos, cut int64) map[string]bool {
	keys := make(map[string]bool, len(base))
	for k := range base {
		keys[k] = true
	}
	for i := range recs {
		if recs[i].End > cut {
			break
		}
		switch recs[i].Entry.Op {
		case journal.OpPlace:
			keys[recs[i].Entry.Name] = true
		case journal.OpRemoveKey:
			delete(keys, recs[i].Entry.Name)
		}
	}
	return keys
}

// checkRecovery recovers the journal in dir and asserts the full
// post-crash contract: recovery succeeds, the key set matches want
// exactly, and after the standard post-failure Repair and Rebalance
// pass the router satisfies every structural invariant.
func checkRecovery(t *testing.T, dir string, want map[string]bool) *journal.Recovered {
	t.Helper()
	g, rec, err := router.RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer g.Journal().Close()
	if got := g.NumKeys(); got != len(want) {
		t.Fatalf("recovered %d keys, want %d", got, len(want))
	}
	// Repair may report keys whose every replica stopped resolving
	// (records survive and re-home); the real lost-key audit is the
	// Locate sweep below.
	g.Repair()
	g.Rebalance()
	for k := range want {
		if _, err := g.Locate(k); err != nil {
			t.Fatalf("lost key %s: %v", k, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	return rec
}

// runScript runs the scripted mutation mix once and returns the
// journal dir plus the scanned WAL records.
func runScript(t *testing.T) (string, []journal.RecordPos) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "base")
	if err := Script(dir); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.ScanWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 200 {
		t.Fatalf("script produced only %d WAL records; want a dense log", len(recs))
	}
	ops := make(map[journal.Op]bool)
	for i := range recs {
		ops[recs[i].Entry.Op] = true
	}
	for _, op := range []journal.Op{
		journal.OpAddServer, journal.OpRemoveServer, journal.OpSetCapacity,
		journal.OpSetDraining, journal.OpSetReplication, journal.OpSetBoundedLoad,
		journal.OpPlace, journal.OpRemoveKey, journal.OpUpdateRec,
	} {
		if !ops[op] {
			t.Fatalf("script never journaled op %d; the lab must cover every record type", op)
		}
	}
	// Key records wait on their stripes while membership records are
	// framed at once, so the log is not in real-time order: Script
	// places key-000..key-089 before it adds srv-10, and some of those
	// placements must be framed after the add for the sweeps to cover
	// that reordering.
	added := -1
	for i := range recs {
		e := recs[i].Entry
		if e.Op == journal.OpAddServer && e.Name == "srv-10" {
			added = i
		}
		if added >= 0 && e.Op == journal.OpPlace && e.Name < key(90) {
			return dir, recs
		}
	}
	t.Fatalf("no placement made before AddServer(srv-10) is framed after it (add at record %d); the sweeps miss the stripe reordering", added)
	return dir, recs
}

// TestCrashAtEveryRecordBoundary is the exhaustive crash sweep: for
// every record boundary in the scripted WAL (including the empty
// prefix), recovery from a copy truncated at that boundary must come
// back with exactly the keys acked by the surviving prefix and pass
// CheckInvariants after Repair and Rebalance. A boundary cut is a
// clean crash, so no truncation may be reported.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	dir, recs := runScript(t)
	scratch := t.TempDir()
	cuts := []int64{walMagicLen}
	for i := range recs {
		cuts = append(cuts, recs[i].End)
	}
	for i, cut := range cuts {
		crashDir := filepath.Join(scratch, fmt.Sprintf("b%04d", i))
		if err := CloneTruncated(dir, crashDir, cut); err != nil {
			t.Fatal(err)
		}
		rec := checkRecovery(t, crashDir, expectedKeys(recs, cut))
		if rec.TruncatedBytes != 0 {
			t.Fatalf("boundary %d: clean cut reported %d truncated bytes", i, rec.TruncatedBytes)
		}
		os.RemoveAll(crashDir)
	}
}

// TestCrashMidRecord tears the log inside a record — the torn-write
// case — at least once for every record type the script produces.
// Recovery must truncate the torn frame, report the truncated bytes,
// and serve exactly the keys acked before it.
func TestCrashMidRecord(t *testing.T) {
	dir, recs := runScript(t)
	scratch := t.TempDir()
	seen := make(map[journal.Op]bool)
	n := 0
	for i := range recs {
		op := recs[i].Entry.Op
		if seen[op] {
			continue
		}
		seen[op] = true
		start := int64(walMagicLen)
		if i > 0 {
			start = recs[i-1].End
		}
		// Three tears per record type: just past the frame start, in the
		// middle, and one byte short of complete.
		for _, cut := range []int64{start + 1, (start + recs[i].End) / 2, recs[i].End - 1} {
			if cut <= start || cut >= recs[i].End {
				continue
			}
			crashDir := filepath.Join(scratch, fmt.Sprintf("op%d-%d", op, cut))
			if err := CloneTruncated(dir, crashDir, cut); err != nil {
				t.Fatal(err)
			}
			rec := checkRecovery(t, crashDir, expectedKeys(recs, start))
			if rec.TruncatedBytes != cut-start {
				t.Fatalf("op %d cut %d: TruncatedBytes = %d, want %d", op, cut, rec.TruncatedBytes, cut-start)
			}
			os.RemoveAll(crashDir)
			n++
		}
	}
	if n < len(seen) {
		t.Fatalf("only %d tears across %d record types", n, len(seen))
	}
}

// TestWALBitFlip corrupts single bits throughout the WAL body. A flip
// breaks the frame CRC, so recovery treats the damaged record as a
// torn tail: it must come back with some clean prefix — never panic,
// never serve a record that failed its checksum — or reject the log
// with a typed corruption error (a flip in the magic).
func TestWALBitFlip(t *testing.T) {
	dir, recs := runScript(t)
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for off := 0; off < len(wal); off += 131 {
		crashDir := filepath.Join(scratch, fmt.Sprintf("flip%d", off))
		if err := CloneTruncated(dir, crashDir, int64(len(wal))); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), wal...)
		mut[off] ^= 0x10
		if err := os.WriteFile(filepath.Join(crashDir, "wal"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		g, _, err := router.RecoverGeo(crashDir, journal.Options{NoSync: true})
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", off, err)
			}
			os.RemoveAll(crashDir)
			continue
		}
		// The surviving prefix must be one of the clean boundaries.
		valid := g.NumKeys() == len(expectedKeys(recs, int64(walMagicLen)))
		for i := range recs {
			if g.NumKeys() == len(expectedKeys(recs, recs[i].End)) {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("flip at %d: recovered key count %d matches no clean prefix", off, g.NumKeys())
		}
		g.Repair()
		g.Rebalance()
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("flip at %d: invariants: %v", off, err)
		}
		g.Journal().Close()
		os.RemoveAll(crashDir)
	}
}

// TestCrashAfterCompaction reruns the boundary sweep on a journal that
// has been compacted mid-life: the snapshot now carries state, and the
// expected key set at each boundary is the compaction-time set plus
// the replayed suffix.
func TestCrashAfterCompaction(t *testing.T) {
	dir, recs := runScript(t)
	base := expectedKeys(recs, recs[len(recs)-1].End)

	g, _, err := router.RecoverGeo(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 320; i++ {
		if _, _, err := g.PlaceReplicated(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Remove(key(305)); err != nil {
		t.Fatal(err)
	}
	if err := g.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	tail, _, err := journal.ScanWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 {
		t.Fatal("no post-compaction WAL records")
	}
	scratch := t.TempDir()
	cuts := []int64{walMagicLen}
	for i := range tail {
		cuts = append(cuts, tail[i].End)
	}
	for i, cut := range cuts {
		want := replayKeys(base, tail, cut)
		crashDir := filepath.Join(scratch, fmt.Sprintf("c%03d", i))
		if err := CloneTruncated(dir, crashDir, cut); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, crashDir, want)
		os.RemoveAll(crashDir)
	}
}
