package router

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"geobalance/internal/journal"
)

// records returns every placed key's record, read table by table under
// the table's lock.
func (r *Router) records() map[string]keyRec {
	out := make(map[string]keyRec)
	for i := range r.keys {
		ks := &r.keys[i]
		ks.lock()
		ks.each(func(key string, _ uint64, rec keyRec) { out[key] = rec })
		ks.unlock()
	}
	return out
}

// fuzzKeyBase supplies fuzz keys: a key of length L is the base's
// first L-1 bytes and one variant byte, so keys of one length differ
// only in their last byte and keys of different lengths share prefixes.
const fuzzKeyBase = "0123456789abcdefghijklmnopqrstuvwxyzABCDEF"

// fuzzKey maps a key byte b and a set hi (0 to 31) to a key: b picks
// one of 41 lengths (0 to 40, across the inline limit) and, with hi,
// one of 224 last bytes, so one table can hold thousands of keys.
func fuzzKey(b, hi byte) string {
	n := int(b) % 41
	if n == 0 {
		return ""
	}
	return fuzzKeyBase[:n-1] + string([]byte{byte('P' + int(b)/41 + 7*int(hi))})
}

// fuzzH0 maps a byte to an h0. The table reads only h0's upper half,
// and every byte of it is b: equal bytes give distinct keys equal h0s,
// and bytes that agree in their low bits share a home position.
func fuzzH0(b byte) uint64 { return uint64(b) * 0x0101010101010101 }

// FuzzKeyTable drives one key table with put/get/delete/iterate
// against a map model. Each four-byte op is (op, key, h0, record): the
// op byte's low three bits pick the op and its high five the key's set
// (see fuzzKey), and a key's h0 is the one its first op supplied.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 17, 3, 1, 0, 18, 3, 2, 2, 17, 0, 0, 1, 17, 0, 0, 2, 18, 0, 0})
	f.Add([]byte{0, 40, 7, 9, 0, 33, 7, 8, 0, 32, 15, 7, 3, 0, 0, 0, 1, 33, 0, 0, 2, 40, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tb keyTable
		tb.arr.Store(newKeyArrays())
		model := make(map[string]keyRec)
		h0s := make(map[string]uint64)
		check := func(at int) {
			got := make(map[string]keyRec)
			tb.lock()
			tb.each(func(key string, h0 uint64, rec keyRec) {
				if _, dup := got[key]; dup {
					t.Fatalf("op %d: each visits %q twice", at, key)
				}
				if h0 != h0s[key] {
					t.Fatalf("op %d: %q has h0 %#x, put with %#x", at, key, h0, h0s[key])
				}
				got[key] = rec
			})
			tb.unlock()
			if len(got) != len(model) || tb.size() != len(model) {
				t.Fatalf("op %d: each saw %d records, size %d, model %d", at, len(got), tb.size(), len(model))
			}
			if pages := len(tb.arr.Load().dir); pages != (tb.used+pageEntries-1)/pageEntries {
				t.Fatalf("op %d: %d pages for %d entry positions", at, pages, tb.used)
			}
			for key, want := range model {
				if got[key] != want {
					t.Fatalf("op %d: each gives %q %+v, want %+v", at, key, got[key], want)
				}
				if pr := tb.get(h0s[key], key); !pr.ok() || pr.rec() != want {
					t.Fatalf("op %d: get(%q) = %+v, %v; want %+v", at, key, pr.rec(), pr.ok(), want)
				}
			}
		}
		for at := 0; len(data) >= 4; at++ {
			op, key, rb := data[0], fuzzKey(data[1], data[0]>>3), data[3]
			h0, seen := h0s[key]
			if !seen {
				h0 = fuzzH0(data[2])
				h0s[key] = h0
			}
			data = data[4:]
			switch op % 8 {
			case 0, 1, 2: // put, the most common op so tables grow
				rec := keyRec{n: int8(rb%MaxReplicas + 1)}
				for i := range rec.slots {
					rec.slots[i] = int32(rb)*int32(i+1) - 300
					rec.salts[i] = int8((int(rb) + i) % MaxChoices)
				}
				tb.lock()
				tb.put(h0, key, rec)
				tb.unlock()
				model[key] = rec
			case 3, 4: // delete
				tb.lock()
				rec, ok := tb.del(h0, key)
				tb.unlock()
				want, had := model[key]
				if ok != had || rec != want {
					t.Fatalf("op %d: del(%q) = %+v, %v; want %+v, %v", at, key, rec, ok, want, had)
				}
				delete(model, key)
			case 5, 6: // get, optimistic and locked
				want, had := model[key]
				if pr := tb.get(h0, key); pr.ok() != had || pr.ok() && pr.rec() != want {
					t.Fatalf("op %d: get(%q) = %+v, %v; want %+v, %v", at, key, pr.rec(), pr.ok(), want, had)
				}
				tb.lock()
				rec, ok, _ := tb.getLocked(h0, key)
				tb.unlock()
				if ok != had || rec != want {
					t.Fatalf("op %d: getLocked(%q) = %+v, %v; want %+v, %v", at, key, rec, ok, want, had)
				}
			case 7:
				check(at)
			}
		}
		check(-1)
		if s := tb.seq.Load(); s&1 != 0 {
			t.Fatalf("sequence %d odd with no writer", s)
		}
	})
}

// TestKeyWordsRoundTrip pins the inline key packing at every length up
// to the inline limit: each reproduces the key's bytes, zero-padded.
func TestKeyWordsRoundTrip(t *testing.T) {
	for n := 0; n <= inlineKey; n++ {
		key := fuzzKeyBase[:n]
		var buf [inlineKey]byte
		for j := range inlineKey / 8 {
			for b := range 8 {
				buf[8*j+b] = byte(keyWord(key, j) >> (8 * b))
			}
		}
		if string(buf[:n]) != key || slices.ContainsFunc(buf[n:], func(b byte) bool { return b != 0 }) {
			t.Errorf("len %d: packed %q, want %q zero-padded", n, buf[:], key)
		}
	}
}

// TestKeyTablePages: a table bulk-loaded with k records holds exactly
// ceil(k/pageEntries) entry pages, and growing it copies no entry: the
// pages of the directory a reader loaded before the growth are the
// first pages of the one after.
func TestKeyTablePages(t *testing.T) {
	for _, k := range []int{0, 1, pageEntries - 1, pageEntries, pageEntries + 1, 3*pageEntries + 5} {
		var tb keyTable
		tb.arr.Store(newKeyArrays())
		var before []*page
		tb.lock()
		for i := range k {
			if i == k/2 {
				before = tb.arr.Load().dir
			}
			key := fmt.Sprintf("key-%d", i)
			tb.put(Hash('k', 0, key), key, keyRec{n: 1, slots: [MaxReplicas]int32{int32(i)}})
		}
		tb.unlock()
		dir := tb.arr.Load().dir
		if want := (k + pageEntries - 1) / pageEntries; len(dir) != want || tb.size() != k {
			t.Errorf("%d records: %d pages and size %d, want %d pages", k, len(dir), tb.size(), want)
		}
		if !slices.Equal(dir[:len(before)], before) {
			t.Errorf("%d records: growth moved a page", k)
		}
	}
}

// shardKeys returns n keys with the given prefix that all land in key
// table 0.
func shardKeys(prefix string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if key := fmt.Sprintf("%s-%d", prefix, i); Hash('k', 0, key)&(keyShardCount-1) == 0 {
			out = append(out, key)
		}
	}
	return out
}

// TestKeyTableConcurrentReaders: readers spin Locate, LocateAny and
// Owners on one table's keys while writers churn other keys of the same
// table, first through the table's growth, across two page boundaries,
// and then by swapping each key out for another, which takes over its
// entry. With as many replicas as distinct candidates, a key's owner
// set depends on the key alone, so every read must return that set and
// primaries from it: stable keys are never missing, and no read returns
// another key's record.
func TestKeyTableConcurrentReaders(t *testing.T) {
	const writers, readers = 2, 2
	// Keys per writer and side: table 0 then holds len(stable) +
	// writers*churn records, on at least three pages.
	churn := 2 * pageEntries
	if testing.Short() || raceEnabled {
		churn = pageEntries + pageEntries/8
	}
	for round := 0; round < 3; round++ {
		g := newTestGeo(t, 128, 2, 3, uint64(40+round))
		if err := g.SetReplication(3); err != nil {
			t.Fatal(err)
		}
		snap := g.Snapshot()
		want := make(map[string][]string)
		ownerSet := func(key string) {
			var cb [MaxChoices]int32
			var set []string
			for _, s := range snap.resolve(key, Hash('k', 0, key), &cb) {
				if name := snap.Names[s]; !slices.Contains(set, name) {
					set = append(set, name)
				}
			}
			slices.Sort(set)
			want[key] = set
		}
		stable := shardKeys(fmt.Sprintf("stable%d", round), 48)
		var churnKeys [writers][2][]string
		for w := range churnKeys {
			for side := range churnKeys[w] {
				churnKeys[w][side] = shardKeys(fmt.Sprintf("churn%d-%d-%d", round, w, side), churn)
				for _, key := range churnKeys[w][side] {
					ownerSet(key)
				}
			}
		}
		for _, key := range stable {
			ownerSet(key)
			if _, err := g.Place(key); err != nil {
				t.Fatal(err)
			}
		}
		var (
			stop     atomic.Bool
			rw, ww   sync.WaitGroup
			badReads atomic.Int64
			inFlight [writers]atomic.Pointer[string] // the key a writer is swapping out
		)
		// read checks one key; a stable key must be found.
		read := func(key string, mustFind bool, dst []string) {
			owners, err := g.Owners(key, dst[:0])
			primary, perr := g.Locate(key)
			anyOwner, aerr := g.LocateAny(key)
			slices.Sort(owners)
			bad := err == nil && !slices.Equal(owners, want[key]) ||
				perr == nil && !slices.Contains(want[key], primary) ||
				aerr == nil && !slices.Contains(want[key], anyOwner) ||
				mustFind && (err != nil || perr != nil || aerr != nil)
			if bad && badReads.Add(1) == 1 {
				t.Errorf("key %q read as owners %v (%v), primary %q (%v), any %q (%v); its owners are %v",
					key, owners, err, primary, perr, anyOwner, aerr, want[key])
			}
		}
		for w := 0; w < readers; w++ {
			rw.Add(1)
			go func(w int) {
				defer rw.Done()
				dst := make([]string, 0, MaxReplicas)
				for i := w; !stop.Load(); i++ {
					if i%8 == 0 {
						read(stable[i/8%len(stable)], true, dst)
					} else if key := inFlight[i%writers].Load(); key != nil {
						read(*key, false, dst)
					}
				}
			}(w)
		}
		for w := 0; w < writers; w++ {
			ww.Add(1)
			go func(w int) {
				defer ww.Done()
				keys := churnKeys[w]
				for _, key := range keys[0] {
					if _, err := g.Place(key); err != nil {
						t.Error(err)
						return
					}
				}
				for pass := 0; pass < 4; pass++ {
					out, in := keys[pass%2], keys[1-pass%2]
					for i := range out {
						inFlight[w].Store(&out[i])
						if err := g.Remove(out[i]); err != nil {
							t.Error(err)
							return
						}
						if _, err := g.Place(in[i]); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		ww.Wait()
		stop.Store(true)
		rw.Wait()
		if n := badReads.Load(); n > 0 {
			t.Fatalf("round %d: %d bad reads", round, n)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if want := len(stable) + writers*churn; g.NumKeys() != want {
			t.Fatalf("round %d: %d keys after churn, want %d", round, g.NumKeys(), want)
		}
		if pages := len(g.keys[0].arr.Load().dir); pages < 3 {
			t.Fatalf("round %d: table 0 has %d pages, want at least 3", round, pages)
		}
	}
}

// TestReadersNeverSeeRolledBackPlace: with the attached journal closed
// underneath the router, every Place of "ghost" stores its record,
// fails the append and rolls back, all under the shard lock. Readers
// spinning on the key must never find it.
func TestReadersNeverSeeRolledBackPlace(t *testing.T) {
	g := newTestGeo(t, 64, 2, 2, 77)
	lg, err := g.StartJournal(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	attempts := 20000
	if testing.Short() || raceEnabled {
		attempts = 5000
	}
	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		sightings atomic.Int64
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]BatchResult, 1)
			for !stop.Load() {
				var err error
				switch w {
				case 0:
					_, err = g.Locate("ghost")
				default:
					g.LocateBatch([]string{"ghost"}, out)
					err = out[0].Err
				}
				if err == nil {
					sightings.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < attempts; i++ {
		if _, err := g.Place("ghost"); !errors.Is(err, journal.ErrClosed) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("place %d over a closed journal: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := sightings.Load(); n > 0 {
		t.Fatalf("readers saw the rolled-back key %d times", n)
	}
	if g.NumKeys() != 0 {
		t.Fatalf("%d keys after rolled-back places", g.NumKeys())
	}
}
