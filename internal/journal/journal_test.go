package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"geobalance/internal/metrics"
)

func sampleEntries() []Entry {
	return []Entry{
		{Op: OpAddServer, Name: "dc-a", Value: 1, Coords: []float64{0.25, 0.75}},
		{Op: OpAddServer, Name: "dc-b", Value: 2.5, Coords: []float64{0.5, 0.5}},
		{Op: OpSetCapacity, Name: "dc-b", Value: 4},
		{Op: OpSetDraining, Name: "dc-a", Flag: true},
		{Op: OpSetReplication, Count: 2},
		{Op: OpSetBoundedLoad, Value: 1.25},
		{Op: OpPlace, Name: "user:42", Rec: Rec{N: 2, Slots: [MaxReplicas]int32{0, 1}, Salts: [MaxReplicas]int8{0, 3}}},
		{Op: OpUpdateRec, Name: "user:42", Rec: Rec{N: 1, Slots: [MaxReplicas]int32{1}}},
		{Op: OpRemoveKey, Name: "user:42"},
		{Op: OpRemoveServer, Name: "dc-a"},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for _, e := range sampleEntries() {
		enc := appendEntry(nil, &e)
		got, err := decodeEntry(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", e.Op, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("%v: round trip %+v != %+v", e.Op, got, e)
		}
	}
}

func TestEntryDecodeRejectsTruncationsAndTrailing(t *testing.T) {
	for _, e := range sampleEntries() {
		enc := appendEntry(nil, &e)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeEntry(enc[:cut]); err == nil {
				t.Errorf("%v: decode accepted %d/%d-byte prefix", e.Op, cut, len(enc))
			}
		}
		if _, err := decodeEntry(append(enc, 0)); err == nil {
			t.Errorf("%v: decode accepted a trailing byte", e.Op)
		}
	}
	if _, err := decodeEntry([]byte{0xff}); err == nil {
		t.Error("decode accepted an unknown op")
	}
}

// invalidEntries holds one entry past each bound decodeEntry enforces.
func invalidEntries() map[string]Entry {
	long := strings.Repeat("k", maxStringLen+1)
	return map[string]Entry{
		"long key":          {Op: OpPlace, Name: long, Rec: Rec{N: 1}},
		"long server name":  {Op: OpAddServer, Name: long, Value: 1},
		"too many coords":   {Op: OpAddServer, Name: "s", Value: 1, Coords: make([]float64, maxCoords+1)},
		"no replicas":       {Op: OpPlace, Name: "k"},
		"too many replicas": {Op: OpUpdateRec, Name: "k", Rec: Rec{N: MaxReplicas + 1}},
		"negative slot":     {Op: OpPlace, Name: "k", Rec: Rec{N: 1, Slots: [MaxReplicas]int32{-1}}},
		"negative choice":   {Op: OpPlace, Name: "k", Rec: Rec{N: 1, Salts: [MaxReplicas]int8{-1}}},
		"replication 0":     {Op: OpSetReplication},
		"replication 5":     {Op: OpSetReplication, Count: MaxReplicas + 1},
		"unknown op":        {Op: opMax + 1, Name: "k"},
	}
}

// TestCheckEntryMatchesDecoder pins CheckEntry to decodeEntry's bounds:
// it refuses every entry past a bound (each of which the decoder
// rejects, where the entry encodes at all) and accepts the sample
// entries and a name of exactly maxStringLen bytes, which read back.
func TestCheckEntryMatchesDecoder(t *testing.T) {
	for name, e := range invalidEntries() {
		if err := CheckEntry(&e); !errors.Is(err, ErrInvalidEntry) {
			t.Errorf("%s: CheckEntry = %v, want ErrInvalidEntry", name, err)
		}
		if e.Rec.N > MaxReplicas {
			continue // appendEntry would index past Rec's arrays
		}
		if _, err := decodeEntry(appendEntry(nil, &e)); err == nil {
			t.Errorf("%s: decodeEntry accepted an entry CheckEntry refuses", name)
		}
	}
	edge := Entry{Op: OpPlace, Name: strings.Repeat("k", maxStringLen), Rec: Rec{N: 1}}
	for _, e := range append(sampleEntries(), edge) {
		if err := CheckEntry(&e); err != nil {
			t.Errorf("%v: CheckEntry refused a readable entry: %v", e.Op, err)
		}
		if _, err := decodeEntry(appendEntry(nil, &e)); err != nil {
			t.Errorf("%v: decode: %v", e.Op, err)
		}
	}
}

// TestAppendRefusesUnreadableEntry: Append and AppendStriped refuse an
// entry the log could not read back — a 65537-byte key among them —
// with ErrInvalidEntry and nothing staged, the refusal is not sticky,
// and the log reopens cleanly with exactly the accepted records.
func TestAppendRefusesUnreadableEntry(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		dir := t.TempDir()
		l, err := Create(dir, Header{Kind: "geo", Dim: 2, D: 2}, nil, Options{NoSync: noSync})
		if err != nil {
			t.Fatal(err)
		}
		long := Entry{Op: OpPlace, Name: strings.Repeat("k", maxStringLen+1), Rec: Rec{N: 1}}
		var want []Entry
		ok := func(i int) Entry {
			return Entry{Op: OpPlace, Name: "key-" + string(rune('a'+i)), Rec: Rec{N: 1, Slots: [MaxReplicas]int32{int32(i)}}}
		}
		if err := l.Append(long); !errors.Is(err, ErrInvalidEntry) {
			t.Fatalf("Append of a %d-byte key = %v, want ErrInvalidEntry", len(long.Name), err)
		}
		if err := l.AppendStriped([]int{3, 5}, []Entry{ok(0), long}, false); !errors.Is(err, ErrInvalidEntry) {
			t.Fatalf("AppendStriped with a %d-byte key = %v, want ErrInvalidEntry", len(long.Name), err)
		}
		for name, e := range invalidEntries() {
			if err := l.Append(e); !errors.Is(err, ErrInvalidEntry) {
				t.Fatalf("Append(%s) = %v, want ErrInvalidEntry", name, err)
			}
			if err := l.AppendStriped([]int{1}, []Entry{e}, false); !errors.Is(err, ErrInvalidEntry) {
				t.Fatalf("AppendStriped(%s) = %v, want ErrInvalidEntry", name, err)
			}
		}
		if got := l.LSN(); got != 0 {
			t.Fatalf("refused appends took LSNs: LSN = %d", got)
		}
		// Not sticky: both paths keep appending.
		for i := 0; i < 4; i++ {
			e := ok(i)
			if i%2 == 0 {
				err = l.Append(e)
			} else {
				err = l.AppendStriped([]int{i}, []Entry{e}, false)
			}
			if err != nil {
				t.Fatalf("append after a refusal: %v", err)
			}
			want = append(want, e)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after refused appends: %v", err)
		}
		l2.Close()
		// NoSync frames staged entries at Close, after the immediate ones.
		sort.Slice(rec.Entries, func(i, j int) bool { return rec.Entries[i].Name < rec.Entries[j].Name })
		if rec.TruncatedBytes != 0 || !reflect.DeepEqual(rec.Entries, want) {
			t.Fatalf("noSync=%v: recovered %d entries (%d bytes truncated), want %v",
				noSync, len(rec.Entries), rec.TruncatedBytes, want)
		}
	}
}

// TestSnapshotRefusesUnreadableEntry: Create and Compact refuse a state
// holding an entry the log could not read back, before any file is
// replaced, so the journal in the directory stays readable.
func TestSnapshotRefusesUnreadableEntry(t *testing.T) {
	dir := t.TempDir()
	bad := append(sampleEntries()[:2], Entry{Op: OpPlace, Name: strings.Repeat("k", maxStringLen+1), Rec: Rec{N: 1}})
	if _, err := Create(dir, Header{Kind: "geo", Dim: 2, D: 2}, bad, Options{}); !errors.Is(err, ErrInvalidEntry) {
		t.Fatalf("Create with an unreadable state entry = %v, want ErrInvalidEntry", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); !os.IsNotExist(err) {
		t.Fatalf("refused Create left a snapshot (stat: %v)", err)
	}
	state := sampleEntries()[:2]
	l, err := Create(dir, Header{Kind: "geo", Dim: 2, D: 2}, state, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sampleEntries()[2]
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(bad); !errors.Is(err, ErrInvalidEntry) {
		t.Fatalf("Compact with an unreadable state entry = %v, want ErrInvalidEntry", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after a refused Compact: %v", err)
	}
	l2.Close()
	if want := append(state, e); !reflect.DeepEqual(rec.Entries, want) {
		t.Fatalf("recovered %v, want %v", rec.Entries, want)
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hdr := Header{Kind: "geo", Dim: 2, D: 3}
	state := sampleEntries()[:2]
	l, err := Create(dir, hdr, state, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appended := sampleEntries()[2:]
	for _, e := range appended {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Header != hdr {
		t.Errorf("header %+v != %+v", rec.Header, hdr)
	}
	want := append(append([]Entry(nil), state...), appended...)
	if !reflect.DeepEqual(rec.Entries, want) {
		t.Errorf("replay entries:\n got %+v\nwant %+v", rec.Entries, want)
	}
	if rec.WALRecords != len(appended) {
		t.Errorf("WALRecords = %d, want %d", rec.WALRecords, len(appended))
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("TruncatedBytes = %d on a clean log", rec.TruncatedBytes)
	}
	// The recovered log continues the LSN sequence.
	if err := l2.Append(Entry{Op: OpRemoveKey, Name: "k"}); err != nil {
		t.Fatal(err)
	}
	if got := l2.LSN(); got != uint64(len(appended))+1 {
		t.Errorf("LSN after recovery append = %d, want %d", got, len(appended)+1)
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "ring", D: 2, Replicas: 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEntries() {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	full, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	recs, validEnd, err := ScanWAL(wal)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != validEnd || len(recs) != len(sampleEntries()) {
		t.Fatalf("clean WAL: %d records valid to %d (file %d)", len(recs), validEnd, len(full))
	}
	// Tear the file at every byte inside the last record: recovery must
	// come back with exactly the records before it.
	lastStart := recs[len(recs)-2].End
	for cut := lastStart; cut < int64(len(full)); cut++ {
		if err := os.WriteFile(wal, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rec.WALRecords != len(recs)-1 {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, rec.WALRecords, len(recs)-1)
		}
		if rec.TruncatedBytes != cut-lastStart {
			t.Fatalf("cut at %d: TruncatedBytes = %d, want %d", cut, rec.TruncatedBytes, cut-lastStart)
		}
		// The tear must be physically gone.
		if fi, _ := os.Stat(wal); fi.Size() != lastStart {
			t.Fatalf("cut at %d: WAL size %d after truncation, want %d", cut, fi.Size(), lastStart)
		}
		l.Close()
	}
}

func TestOpenRejectsCorruptSnapshotAndDecodableGarbage(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "geo", Dim: 1, D: 2}, sampleEntries()[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Op: OpRemoveKey, Name: "k"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	snap := filepath.Join(dir, snapName)
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)-1] ^= 0x40
	if err := os.WriteFile(snap, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped snapshot byte: err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(snap, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	// A WAL with a CRC-valid frame whose payload fails strict decoding
	// is corruption, not a torn tail.
	bad := []byte(walMagic)
	bad = appendRawFrame(bad, []byte{1 /* LSN */, 0xff /* unknown op */})
	if err := os.WriteFile(filepath.Join(dir, walName), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("undecodable CRC-valid record: err = %v, want ErrCorrupt", err)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "ring", D: 2, Replicas: 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Entry{Op: OpAddServer, Name: "s", Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	walBefore, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	state := []Entry{{Op: OpAddServer, Name: "s", Value: 1}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land after the snapshot LSN.
	if err := l.Append(Entry{Op: OpRemoveServer, Name: "s"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec, err := openAndClose(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Entry(nil), state...), Entry{Op: OpRemoveServer, Name: "s"})
	if !reflect.DeepEqual(rec.Entries, want) {
		t.Errorf("post-compaction replay:\n got %+v\nwant %+v", rec.Entries, want)
	}
	if rec.SnapshotLSN != 5 {
		t.Errorf("SnapshotLSN = %d, want 5", rec.SnapshotLSN)
	}

	// Crash window: snapshot renamed but WAL not yet reset. Records at
	// or below the snapshot LSN must be skipped, not double-applied.
	if err := os.WriteFile(filepath.Join(dir, walName), walBefore, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err = openAndClose(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Entries, state) || rec.WALRecords != 0 {
		t.Errorf("stale-WAL replay: %+v (%d WAL records), want snapshot state only",
			rec.Entries, rec.WALRecords)
	}
}

func openAndClose(dir string) (*Log, *Recovered, error) {
	l, rec, err := Open(dir, Options{})
	if err != nil {
		return nil, nil, err
	}
	l.Close()
	return l, rec, nil
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "ring", D: 2, Replicas: 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				if err := l.Append(Entry{Op: OpRemoveKey, Name: "k"}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanWAL(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*per {
		t.Fatalf("%d records on disk, want %d", len(recs), goroutines*per)
	}
	for i, r := range recs {
		if r.Seq != uint64(i)+1 {
			t.Fatalf("record %d has LSN %d", i, r.Seq)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "ring", D: 2, Replicas: 1}, nil, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Entry{Op: OpRemoveKey, Name: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := m.Appends.Value(); got != 3 {
		t.Errorf("journal_appends_total = %d, want 3", got)
	}
	if m.Fsyncs.Value() == 0 {
		t.Error("journal_fsyncs_total = 0 after sync appends")
	}
	// Tear the tail; recovery must count itself and the dropped bytes.
	wal := filepath.Join(dir, walName)
	buf, _ := os.ReadFile(wal)
	os.WriteFile(wal, buf[:len(buf)-3], 0o644)
	l2, _, err := Open(dir, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got := m.Recoveries.Value(); got != 1 {
		t.Errorf("journal_recoveries_total = %d, want 1", got)
	}
	if got := m.TruncatedBytes.Value(); got == 0 {
		t.Error("journal_truncated_bytes = 0 after a torn tail")
	}
}

func TestNoSyncBuffersUntilClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "ring", D: 2, Replicas: 1}, nil, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Entry{Op: OpRemoveKey, Name: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	if fi, _ := os.Stat(filepath.Join(dir, walName)); fi.Size() != int64(len(walMagic)) {
		t.Errorf("NoSync WAL grew to %d bytes before Close", fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanWAL(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Errorf("%d records after Close, want 10", len(recs))
	}
	if err := l.Append(Entry{Op: OpRemoveKey, Name: "k"}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
}

// BenchmarkAppend is the immediate append the router's membership
// changes use: one OpPlace record encoded, framed and buffered per op
// (NoSync, compacted off the clock so the WAL stays small).
func BenchmarkAppend(b *testing.B) {
	l, err := Create(b.TempDir(), Header{Kind: "geo", Dim: 2, D: 2}, nil, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := Entry{Op: OpPlace, Name: "key-00001234", Rec: Rec{N: 1, Slots: [MaxReplicas]int32{271}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
		if i&(1<<18-1) == 1<<18-1 {
			b.StopTimer()
			if err := l.Compact(nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
