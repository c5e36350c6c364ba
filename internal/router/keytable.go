// The key-record store. Each of the router's keyShardCount key shards
// keeps its records in a keyTable: an open-addressing table keyed by
// h0 = Hash('k', 0, key) that Locate, LocateAny, Owners and LocateBatch
// read without taking its lock and without writing shared memory.
//
// A table's records live in word arrays, published together through an
// atomic.Pointer (keyArrays):
//
//   - the entries are fixed-size, entryWords words each: h0, a meta
//     word (replica count, choice indices, key length), the replica
//     slots, and the key bytes inline, little-endian and zero-padded.
//     A key longer than inlineKey bytes keeps its bytes in the long
//     map, which only a holder of the lock reads. A vacant entry has a
//     zero meta word; vacated positions are reused before new ones.
//     Entry position p lives in page p/pageEntries of dir, the page
//     directory. A page never moves: growth appends one zeroed page to
//     a copy of the directory, so a published directory is immutable
//     and no entry is ever copied.
//   - idx is a linear-probing index over the entries: a used word is
//     tag<<32 | position+1 with tag = h0>>32, and its home position is
//     the tag's low bits. Removal shifts the rest of the cluster back,
//     so place/remove churn leaves no tombstones. The index doubles
//     past 3/4 full, rebuilt from the entries.
//
// Neither idx nor a page holds a Go pointer (the directory is a short
// slice of page pointers), every word of them that a lock-free reader
// can touch is stored and loaded through sync/atomic, a probe is
// bounded by the index length, and every entry position a reader takes
// from idx is bounds-checked against the directory before use. A read
// racing a writer is therefore memory-safe but may see a mix of
// states; the sequence number rules those out. A writer keeps seq odd
// for its whole locked section — the journal append and its rollback
// included, so no reader sees a record before it is durable or after
// it is rolled back — and a reader keeps its result only if seq was
// even and unchanged around its probe. After readTries failed attempts
// the reader takes the lock instead: a group-commit append can hold it
// across an fsync. Growth publishes a new keyArrays; a reader still
// probing the old one fails the sequence check.
//
// A writer probes once per insert: a locked probe for an absent key
// ends at the empty index position the key goes to (getLocked returns
// it), and set fills it unless the growth that made room rebuilt the
// index.
package router

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

const (
	// entryWords is the size of a table entry in words: one 64-byte
	// cache line holding h0, the meta word, two words of replica slots
	// and four of key bytes.
	entryWords = 8

	// inlineKey is the longest key whose bytes its entry holds.
	inlineKey = 32

	// longKey is the meta key-length mark of a key kept in the long map.
	longKey = 0xff

	// readTries bounds a reader's optimistic attempts before it takes
	// the shard lock.
	readTries = 8

	// minIndex is a fresh table's index length.
	minIndex = 8

	// A page holds pageEntries entries, 32 KiB: a shard of a 2^16-key
	// router (~1024 records) fills two or three, one of a 2^20-key
	// router (~16384) 32 or 33.
	pageShift   = 9
	pageEntries = 1 << pageShift
)

// page is a block of entries; it holds no Go pointer.
type page [pageEntries][entryWords]uint64

// keyArrays is a table's published state. Writers store into the index
// and the pages in place; one that replaces the index or extends the
// directory publishes a new keyArrays.
type keyArrays struct {
	idx []uint64 // the probe index; the length is a power of two
	dir []*page  // the entry pages, immutable once published
}

// keyTable is one key shard's record table (see the file comment).
// The fields after n are the writer's, read and written under mu.
type keyTable struct {
	mu  sync.Mutex
	seq atomic.Uint64
	arr atomic.Pointer[keyArrays]
	n   atomic.Int64 // live records: written under mu, read atomically

	used int              // entry positions handed out
	free []int32          // vacated positions below used
	long map[int32]string // keys past inlineKey bytes, by entry position
	_    [56]byte         // keep neighbouring shards off each other's lines
}

func newKeyArrays() *keyArrays { return &keyArrays{idx: make([]uint64, minIndex)} }

// lock starts a writer section: seq stays odd until unlock.
func (t *keyTable) lock() {
	t.mu.Lock()
	t.seq.Add(1)
}

func (t *keyTable) unlock() {
	t.seq.Add(1)
	t.mu.Unlock()
}

// size returns the number of records.
func (t *keyTable) size() int { return int(t.n.Load()) }

// keyWord returns word j of a key's inline bytes, little-endian and
// zero-padded; a key past inlineKey bytes has no inline bytes.
func keyWord(key string, j int) uint64 {
	n, at := len(key), 8*j
	switch {
	case n > inlineKey || at >= n:
		return 0
	case n-at >= 8:
		return le64(key[at:])
	}
	return tailWord(key, at)
}

// tailWord packs the last n-at < 8 bytes of key, from at on.
func tailWord(key string, at int) uint64 {
	n := len(key)
	if n >= 8 {
		return le64(key[n-8:]) >> (64 - 8*(n-at))
	}
	var w uint64
	for i := n - 1; i >= at; i-- {
		w = w<<8 | uint64(key[i])
	}
	return w
}

// keyEq reports whether entry e holds key, a key of at most inlineKey
// bytes whose length matched the entry's.
func keyEq(e *[entryWords]uint64, key string) bool {
	n, at := len(key), 0
	for ; n-at >= 8; at += 8 {
		if atomic.LoadUint64(&e[4+(at>>3&3)]) != le64(key[at:]) {
			return false
		}
	}
	return at == n || atomic.LoadUint64(&e[4+(at>>3&3)]) == tailWord(key, at)
}

// le64 loads the first 8 bytes of s little-endian (one load once the
// compiler combines the byte loads).
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// packRec encodes a record of key as an entry's meta and slot words.
func packRec(rec keyRec, key string) (meta, s01, s23 uint64) {
	klen := uint64(len(key))
	if klen > inlineKey {
		klen = longKey
	}
	meta = uint64(uint8(rec.n)) | klen<<40
	for i, s := range rec.salts {
		meta |= uint64(uint8(s)) << (8 + 8*i)
	}
	s01 = uint64(uint32(rec.slots[0])) | uint64(uint32(rec.slots[1]))<<32
	s23 = uint64(uint32(rec.slots[2])) | uint64(uint32(rec.slots[3]))<<32
	return meta, s01, s23
}

// packedRec is a record in its entry encoding: the meta word, zero for
// no record, and the two slot words. The read path returns it in
// registers and decodes only what its caller uses.
type packedRec struct{ meta, s01, s23 uint64 }

func (pr packedRec) ok() bool { return pr.meta != 0 }

func (pr packedRec) primary() int32 { return int32(pr.s01) }

func (pr packedRec) rec() keyRec {
	return keyRec{
		n:     int8(pr.meta),
		salts: [MaxReplicas]int8{int8(pr.meta >> 8), int8(pr.meta >> 16), int8(pr.meta >> 24), int8(pr.meta >> 32)},
		slots: [MaxReplicas]int32{int32(pr.s01), int32(pr.s01 >> 32), int32(pr.s23), int32(pr.s23 >> 32)},
	}
}

// entry returns entry p's words; p must be in range.
func (a *keyArrays) entry(p int) *[entryWords]uint64 {
	return &a.dir[p>>pageShift][p&(pageEntries-1)]
}

// find probes for the key under the lock: i is its index position and
// p its entry position, or p < 0 and i the empty index position that
// ended the probe.
func (t *keyTable) find(a *keyArrays, h0 uint64, key string) (i, p int) {
	if len(key) > inlineKey {
		return t.findLong(a, h0, key)
	}
	i, e := a.probe(h0, key)
	if e == nil {
		return i, -1
	}
	return i, int(uint32(a.idx[i])) - 1
}

// probe looks up a key of at most inlineKey bytes for find and for the
// lock-free readers: it returns the key's index position and entry, or
// a nil entry and the empty index position that ended the probe. It
// only loads atomically, stops after len(idx) positions, and checks
// every entry position it takes from idx against dir.
func (a *keyArrays) probe(h0 uint64, key string) (i int, e *[entryWords]uint64) {
	idx, dir := a.idx, a.dir
	mask := len(idx) - 1
	tag, klen := h0>>32, uint64(len(key))
	i = int(tag) & mask
	for range len(idx) {
		w := atomic.LoadUint64(&idx[i])
		if w == 0 {
			return i, nil
		}
		if p := int(uint32(w)) - 1; w>>32 == tag && uint(p>>pageShift) < uint(len(dir)) {
			e = &dir[p>>pageShift][p&(pageEntries-1)]
			if atomic.LoadUint64(&e[0]) == h0 && atomic.LoadUint64(&e[1])>>40 == klen && keyEq(e, key) {
				return i, e
			}
		}
		i = (i + 1) & mask
	}
	// Only a probe racing a writer finds no empty position; its reader
	// fails the sequence check.
	return -1, nil
}

// findLong is find for a key past inlineKey bytes. Caller holds the
// lock.
func (t *keyTable) findLong(a *keyArrays, h0 uint64, key string) (i, p int) {
	mask := len(a.idx) - 1
	for i = int(h0>>32) & mask; a.idx[i] != 0; i = (i + 1) & mask {
		p = int(uint32(a.idx[i])) - 1
		if e := a.entry(p); e[0] == h0 && e[1]>>40 == longKey && t.long[int32(p)] == key {
			return i, p
		}
	}
	return i, -1
}

// entryRec returns entry e's record.
func entryRec(e *[entryWords]uint64) packedRec {
	return packedRec{atomic.LoadUint64(&e[1]), atomic.LoadUint64(&e[2]), atomic.LoadUint64(&e[3])}
}

// get returns the key's record without taking the lock unless
// readTries optimistic probes fail or the key is too long to read
// lock-free.
func (t *keyTable) get(h0 uint64, key string) packedRec {
	if len(key) <= inlineKey {
		for range readTries {
			s := t.seq.Load()
			if s&1 != 0 {
				continue
			}
			a := t.arr.Load()
			var pr packedRec
			if _, e := a.probe(h0, key); e != nil {
				pr = entryRec(e)
			}
			if t.seq.Load() == s {
				return pr
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.arr.Load()
	if _, p := t.find(a, h0, key); p >= 0 {
		return entryRec(a.entry(p))
	}
	return packedRec{}
}

// getLocked returns the key's record and its index position at: the
// key's own, or for an absent key the empty position its probe ended
// at. Caller holds the lock.
func (t *keyTable) getLocked(h0 uint64, key string) (rec keyRec, ok bool, at int) {
	a := t.arr.Load()
	at, p := t.find(a, h0, key)
	if p < 0 {
		return keyRec{}, false, at
	}
	return entryRec(a.entry(p)).rec(), true, at
}

// put stores the key's record, replacing the old one if present.
// Caller holds the lock.
func (t *keyTable) put(h0 uint64, key string, rec keyRec) {
	_, _, at := t.getLocked(h0, key)
	t.set(at, h0, key, rec)
}

// set stores the key's record at index position at, which getLocked
// returned for the key with no change to the table since: over the
// key's record if it has one, else in a new entry. Caller holds the
// lock.
func (t *keyTable) set(at int, h0 uint64, key string, rec keyRec) {
	meta, s01, s23 := packRec(rec, key)
	a := t.arr.Load()
	if w := a.idx[at]; w != 0 {
		e := a.entry(int(uint32(w)) - 1)
		atomic.StoreUint64(&e[1], meta)
		atomic.StoreUint64(&e[2], s01)
		atomic.StoreUint64(&e[3], s23)
		return
	}
	a, rebuilt := t.reserve()
	if rebuilt {
		at = emptyFrom(a.idx, h0)
	}
	var p int
	if n := len(t.free); n > 0 {
		p, t.free = int(t.free[n-1]), t.free[:n-1]
	} else {
		p = t.used
		t.used++
	}
	if len(key) > inlineKey {
		if t.long == nil {
			t.long = make(map[int32]string)
		}
		t.long[int32(p)] = key
	}
	e := a.entry(p)
	atomic.StoreUint64(&e[0], h0)
	atomic.StoreUint64(&e[1], meta)
	atomic.StoreUint64(&e[2], s01)
	atomic.StoreUint64(&e[3], s23)
	for j := range 4 {
		atomic.StoreUint64(&e[4+j], keyWord(key, j))
	}
	atomic.StoreUint64(&a.idx[at], h0>>32<<32|uint64(p+1))
	t.n.Store(t.n.Load() + 1)
}

// del removes the key and returns its record. Caller holds the lock.
func (t *keyTable) del(h0 uint64, key string) (keyRec, bool) {
	a := t.arr.Load()
	i, p := t.find(a, h0, key)
	if p < 0 {
		return keyRec{}, false
	}
	rec := entryRec(a.entry(p)).rec()
	atomic.StoreUint64(&a.entry(p)[1], 0)
	if len(key) > inlineKey {
		delete(t.long, int32(p))
	}
	t.free = append(t.free, int32(p))
	// Shift back every later cluster member whose home is not in (i, j].
	idx, mask := a.idx, len(a.idx)-1
	for j := (i + 1) & mask; idx[j] != 0; j = (j + 1) & mask {
		if home := int(idx[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			atomic.StoreUint64(&idx[i], idx[j])
			i = j
		}
	}
	atomic.StoreUint64(&idx[i], 0)
	t.n.Store(t.n.Load() - 1)
	return rec, true
}

// emptyFrom returns the first empty index position from h0's home.
// Caller holds the lock.
func emptyFrom(idx []uint64, h0 uint64) int {
	mask := len(idx) - 1
	i := int(h0>>32) & mask
	for idx[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// reserve makes room for one more record and returns the arrays to
// write it to, and whether their index is new: twice the length once
// the index would pass 3/4 full, rebuilt from the entries. Once no
// entry position is free it appends a zeroed page to a copy of the
// directory. New arrays are filled before they are published. Caller
// holds the lock.
func (t *keyTable) reserve() (*keyArrays, bool) {
	a := t.arr.Load()
	growIdx := t.size()+1 > len(a.idx)/4*3
	growDir := len(t.free) == 0 && t.used == len(a.dir)*pageEntries
	if !growIdx && !growDir {
		return a, false
	}
	b := &keyArrays{idx: a.idx, dir: a.dir}
	if growDir {
		b.dir = append(a.dir[:len(a.dir):len(a.dir)], new(page))
	}
	if growIdx {
		b.idx = make([]uint64, 2*len(a.idx))
		for p := range t.used {
			if e := b.entry(p); e[1] != 0 {
				b.idx[emptyFrom(b.idx, e[0])] = e[0]>>32<<32 | uint64(p+1)
			}
		}
	}
	t.arr.Store(b)
	return b, growIdx
}

// each calls fn for every record, in entry order. Caller holds the
// lock; fn must not modify the table.
func (t *keyTable) each(fn func(key string, h0 uint64, rec keyRec)) {
	a := t.arr.Load()
	var buf [inlineKey]byte
	for p := range t.used {
		e := a.entry(p)
		if e[1] == 0 {
			continue
		}
		var key string
		if klen := int(e[1] >> 40); klen == longKey {
			key = t.long[int32(p)]
		} else {
			for j := range 4 {
				binary.LittleEndian.PutUint64(buf[8*j:], e[4+j])
			}
			key = string(buf[:klen])
		}
		fn(key, e[0], packedRec{e[1], e[2], e[3]}.rec())
	}
}

// adopt installs u's records in t, for a restart. Caller holds t's
// lock; u must be unreachable from other goroutines.
func (t *keyTable) adopt(u *keyTable) {
	t.arr.Store(u.arr.Load())
	t.n.Store(u.n.Load())
	t.used, t.free, t.long = u.used, u.free, u.long
}
