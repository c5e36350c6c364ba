package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stripeEntry is the record a stripe test stages: a key removal whose
// name says which stripe staged it and in which position.
func stripeEntry(stripe, i int) Entry {
	return Entry{Op: OpRemoveKey, Name: fmt.Sprintf("s%02d-%06d", stripe, i)}
}

// parseStripeEntry inverts stripeEntry.
func parseStripeEntry(t *testing.T, e Entry) (stripe, i int) {
	t.Helper()
	s, n, ok := strings.Cut(e.Name, "-")
	if !ok || len(s) != 3 {
		t.Fatalf("unexpected record %+v", e)
	}
	var err1, err2 error
	stripe, err1 = strconv.Atoi(s[1:])
	i, err2 = strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		t.Fatalf("unexpected record %+v", e)
	}
	return stripe, i
}

func newStripeLog(t *testing.T, noSync bool) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Create(dir, Header{Kind: "geo", Dim: 2, D: 2}, nil, Options{NoSync: noSync})
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func scanDir(t *testing.T, dir string) []RecordPos {
	t.Helper()
	recs, _, err := ScanWAL(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// checkStripeOrder asserts the WAL's LSNs run from first without a gap
// and that each stripe's records appear in staging order; it returns
// how many records each stripe logged.
func checkStripeOrder(t *testing.T, recs []RecordPos, first uint64) map[int]int {
	t.Helper()
	next := make(map[int]int)
	for k, r := range recs {
		if r.Seq != first+uint64(k) {
			t.Fatalf("record %d has LSN %d, want %d", k, r.Seq, first+uint64(k))
		}
		s, i := parseStripeEntry(t, r.Entry)
		if i < next[s] {
			t.Fatalf("stripe %d: record %d framed after record %d", s, i, next[s]-1)
		}
		next[s] = i + 1
	}
	return next
}

// TestStripeKeepsStagingOrder stages interleaved single and batched
// calls on a few stripes and checks that every stripe's records reach
// the WAL in staging order, under contiguous LSNs, while an immediate
// Append made mid-way is framed ahead of the entries staged before it.
func TestStripeKeepsStagingOrder(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("nosync=%v", noSync), func(t *testing.T) {
			l, dir := newStripeLog(t, noSync)
			next := make(map[int]int)
			stage := func(stripes ...int) {
				t.Helper()
				var es []Entry
				for _, s := range stripes {
					s %= stripeCount
					es = append(es, stripeEntry(s, next[s]))
					next[s]++
				}
				if err := l.AppendStriped(stripes, es, false); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				stage(3)
				stage(63, 3, 0, 3) // one call, stripes out of order, stripe 3 twice
				stage(7)
			}
			if err := l.Append(Entry{Op: OpSetBoundedLoad, Value: 2}); err != nil {
				t.Fatal(err)
			}
			stage(stripeCount + 7) // stripe indexes wrap at the stripe count
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs := scanDir(t, dir)
			if len(recs) != 50*6+2 {
				t.Fatalf("%d records, want %d", len(recs), 50*6+2)
			}
			var marker int
			for k, r := range recs {
				if r.Entry.Op == OpSetBoundedLoad {
					marker = k
				}
			}
			if noSync && marker != 0 {
				t.Errorf("NoSync: the immediate append is record %d, want 0 (ahead of every staged entry)", marker)
			}
			if !noSync && marker != 50*6 {
				t.Errorf("sync: the immediate append is record %d, want %d (staged entries framed at once)", marker, 50*6)
			}
			recs = append(recs[:marker:marker], recs[marker+1:]...)
			for k := range recs {
				recs[k].Seq = uint64(k) + 1 // renumber around the marker
			}
			got := checkStripeOrder(t, recs, 1)
			if !reflect.DeepEqual(got, next) {
				t.Errorf("records per stripe %v, want %v", got, next)
			}
		})
	}
}

// TestStripeSyncCloseDrainCompactDrops pins when staged entries reach
// the WAL in NoSync mode: not before a stripe passes its threshold,
// every stripe on Sync and on Close, and never after a Compact, whose
// snapshot covers them.
func TestStripeSyncCloseDrainCompactDrops(t *testing.T) {
	l, dir := newStripeLog(t, true)
	stageAll := func(round int) {
		t.Helper()
		for s := 0; s < stripeCount; s++ {
			if err := l.AppendStriped([]int{s}, []Entry{stripeEntry(s, round)}, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	stageAll(0)
	if got := l.WALSize(); got != int64(len(walMagic)) {
		t.Fatalf("WAL holds %d bytes before any stripe passed its threshold", got)
	}
	if got := l.LSN(); got != 0 {
		t.Fatalf("LSN %d before any entry was framed", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs := scanDir(t, dir); len(recs) != stripeCount {
		t.Fatalf("Sync wrote %d records, want one per stripe (%d)", len(recs), stripeCount)
	}

	stageAll(1)
	state := []Entry{{Op: OpSetReplication, Count: 2}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs := scanDir(t, dir); len(recs) != 0 {
		t.Fatalf("%d records after Compact and Sync; the snapshot covers the staged entries", len(recs))
	}

	stageAll(2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := scanDir(t, dir)
	if len(recs) != stripeCount {
		t.Fatalf("Close wrote %d records, want one per stripe (%d)", len(recs), stripeCount)
	}
	checkStripeOrder(t, recs, stripeCount+1)
	_, rec, err := openAndClose(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN != stripeCount || !reflect.DeepEqual(rec.Entries[0], state[0]) || rec.WALRecords != stripeCount {
		t.Fatalf("recovered snapshot LSN %d, %d WAL records, first entry %+v", rec.SnapshotLSN, rec.WALRecords, rec.Entries[0])
	}

	// A stripe frames itself once it passes its threshold.
	l, _ = newStripeLog(t, true)
	defer l.Close()
	for i := 0; l.LSN() == 0; i++ {
		if i > stripeFlush {
			t.Fatalf("stripe never framed after %d staged entries", i)
		}
		if err := l.AppendStriped([]int{9}, []Entry{stripeEntry(9, i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	if l.LSN() < 2 || len(l.stripes[9].buf) != 0 {
		t.Fatalf("threshold framing left LSN %d and %d staged bytes", l.LSN(), len(l.stripes[9].buf))
	}
}

// TestStripeRefusedByCloseLogsNothing races batched stagers against
// Close: a call that returned nil must be in the WAL whole, and a call
// Close refused must have logged none of its frames.
func TestStripeRefusedByCloseLogsNothing(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("nosync=%v", noSync), func(t *testing.T) {
			l, dir := newStripeLog(t, noSync)
			defer l.Close() // stops the workers if the test fails early
			const workers, batch = 4, 5
			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				acks = make(map[string]bool) // first name of each call -> acked
			)
			started := make(chan struct{}, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					at := make([]int, batch)
					es := make([]Entry, batch)
					for i := 0; ; i++ {
						for j := range es {
							at[j] = w*batch + j
							es[j] = stripeEntry(at[j], i)
						}
						err := l.AppendStriped(at, es, false)
						if err != nil && !errors.Is(err, ErrClosed) {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						mu.Lock()
						acks[es[0].Name] = err == nil
						mu.Unlock()
						if i == 10 {
							started <- struct{}{}
						}
						if err != nil {
							return
						}
					}
				}()
			}
			for w := 0; w < workers; w++ {
				<-started
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			logged := make(map[string]int)
			for _, r := range scanDir(t, dir) {
				s, i := parseStripeEntry(t, r.Entry)
				logged[stripeEntry(s-s%batch, i).Name]++
			}
			for name, acked := range acks {
				switch n := logged[name]; {
				case acked && n != batch:
					t.Errorf("acked call %s logged %d of %d frames", name, n, batch)
				case !acked && n != 0:
					t.Errorf("refused call %s logged %d frames", name, n)
				}
			}
			if len(logged) != len(acks)-workers {
				t.Errorf("%d calls logged, want the %d acked", len(logged), len(acks)-workers)
			}
		})
	}
}

// TestStripeFailedFlushSticky breaks the WAL file under the log: the
// write that fails makes the error sticky, and every later striped
// append is refused with it, nothing staged.
func TestStripeFailedFlushSticky(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("nosync=%v", noSync), func(t *testing.T) {
			l, _ := newStripeLog(t, noSync)
			if err := l.AppendStriped([]int{1}, []Entry{stripeEntry(1, 0)}, false); err != nil {
				t.Fatal(err)
			}
			l.f.Close() // the disk goes away under the log
			var first error
			if noSync {
				first = l.Sync()
			} else {
				first = l.AppendStriped([]int{2}, []Entry{stripeEntry(2, 0)}, false)
			}
			if !errors.Is(first, os.ErrClosed) {
				t.Fatalf("write to a dead file: %v, want os.ErrClosed", first)
			}
			for _, async := range []bool{false, true} {
				err := l.AppendStriped([]int{3, 4}, []Entry{stripeEntry(3, 0), stripeEntry(4, 0)}, async)
				if err != first {
					t.Errorf("striped append (async=%v) after a failed write: %v, want the sticky %v", async, err, first)
				}
			}
			if n := len(l.stripes[3].buf) + len(l.stripes[4].buf); n != 0 {
				t.Errorf("refused calls staged %d bytes", n)
			}
			if err := l.Append(stripeEntry(5, 0)); err != first {
				t.Errorf("append after a failed write: %v, want the sticky %v", err, first)
			}
		})
	}
}

// TestStripeConcurrentStagers runs one stager per stripe against Sync,
// Compact and Close, for the race detector: the WAL that results must
// recover, with contiguous LSNs and each stripe's records in staging
// order. Each stager stops after a fixed count, which Close usually
// cuts short, so the WAL stays small.
func TestStripeConcurrentStagers(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("nosync=%v", noSync), func(t *testing.T) {
			l, dir := newStripeLog(t, noSync)
			defer l.Close() // stops the stagers if the test fails early
			const stagers = 8
			var wg sync.WaitGroup
			done := make(chan struct{}, stagers)
			for s := 0; s < stagers; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					stripe := s * (stripeCount / stagers)
					for i := 0; i < 20000; i++ {
						err := l.AppendStriped([]int{stripe}, []Entry{stripeEntry(stripe, i)}, i%3 == 0)
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							t.Errorf("stripe %d: %v", stripe, err)
							return
						}
						if i == 100 {
							done <- struct{}{}
						}
					}
				}()
			}
			for s := 0; s < stagers; s++ {
				<-done
				op := l.Sync
				if s == 0 {
					op = func() error { return l.Compact(nil) }
				}
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
			// One record past the compaction, however far the stagers got.
			if err := l.AppendStriped([]int{1}, []Entry{stripeEntry(1, 0)}, false); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			_, rec, err := openAndClose(dir)
			if err != nil {
				t.Fatal(err)
			}
			recs := scanDir(t, dir)
			if rec.WALRecords != len(recs) || len(recs) == 0 {
				t.Fatalf("recovered %d WAL records of %d", rec.WALRecords, len(recs))
			}
			checkStripeOrder(t, recs, rec.SnapshotLSN+1)
		})
	}
}
