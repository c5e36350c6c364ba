// Package journal is the router's durability subsystem: an append-only
// write-ahead log of router mutations plus a snapshot/compaction cycle,
// stdlib-only and crash-safe by construction.
//
// A journal directory holds two files. `snapshot` is a full router
// state serialized as a sequence of replay entries (memberships first,
// then key records) together with the log sequence number (LSN) it
// covers; it is only ever replaced atomically (write temp, fsync,
// rename). `wal` is the append-only log: every record is framed as a
// little-endian uint32 payload length, a uint32 CRC-32C of the payload,
// and the payload itself (a uvarint LSN followed by the entry
// encoding). Recovery reads the snapshot, then replays every WAL
// record with an LSN past the snapshot's — records at or below it are
// skipped, which is what makes compaction crash-safe without an atomic
// log truncation: a crash between the snapshot rename and the WAL
// reset merely leaves already-covered records to be skipped.
//
// Opening a journal scans the WAL and physically truncates it at the
// first record that cannot be a durable write: a short frame, an
// oversized length, or a CRC mismatch (a torn tail from a crash mid
// write — or mid-log corruption, in which case the valid prefix is the
// best consistent state available and everything after it is
// discarded, loudly, via the truncated-bytes counter). A record whose
// CRC verifies but whose payload does not decode, or whose LSN breaks
// the contiguous sequence, cannot be a torn write — that is corruption
// of a different kind and surfaces as a typed error wrapping
// ErrCorrupt. Never a panic, never a silently wrong state: the fuzz
// harness in crashtest holds the package to exactly that contract.
//
// Appends come in two kinds. Append frames its record at once: under
// the log mutex it takes the next LSN and joins the pending buffer. The
// router appends membership changes that way, so each one precedes
// every record staged after it. AppendStriped is the key-record path:
// the log has 64 append stripes, one per router key shard, each a mutex
// and a buffer of encoded but unframed entries, so writers of different
// shards share neither the log mutex nor a buffer line. A stripe's
// entries get their LSNs and frames, in staging order under the log
// mutex, once the stripe passes stripeFlush bytes in NoSync mode, at
// once in sync mode, and on Sync and Close; Compact drops them, because
// its snapshot covers them. The frame format and LSN contiguity do not
// depend on the path, so recovery does not know stripes exist. Records
// of one stripe keep their order; records of different stripes may
// reach the WAL out of real-time order.
//
// In sync mode framed records group-commit: one appender becomes the
// batch leader and writes + fsyncs the whole pending buffer while later
// appenders form the next batch, and every Append (and non-async
// AppendStriped) returns only once its own records are durable. With
// Options.NoSync the log instead buffers and writes without fsync past
// a size threshold and on Sync, Compact and Close (for benchmarks and
// single-threaded labs where durability is asserted by explicit Close);
// a crash may then lose any set of unwritten records, not only the
// latest ones.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	walName      = "wal"
	snapName     = "snapshot"
	snapTmpName  = "snapshot.tmp"
	walMagic     = "gjwal01\n"
	snapMagic    = "gjsnap1\n"
	frameHdrLen  = 8       // uint32 length + uint32 crc
	maxFrameLen  = 1 << 20 // no single mutation comes near 1 MiB
	flushPending = 1 << 18 // NoSync mode: flush the buffer past 256 KiB
	stripeCount  = 64      // append stripes, one per router key shard
	stripeFlush  = 1 << 14 // NoSync mode: frame a stripe past 16 KiB staged
	allStripes   = ^uint64(0)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every corruption error the package returns:
// a journal that is damaged beyond the torn-tail repair Open performs
// silently. Match with errors.Is.
var ErrCorrupt = errors.New("journal corrupt")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("journal closed")

// ErrInvalidEntry is wrapped by the error an append or a snapshot
// returns for an entry the log could not read back (see CheckEntry).
// The call is refused with nothing staged or written, and the log keeps
// taking appends: the error is not sticky.
var ErrInvalidEntry = errors.New("invalid journal entry")

// CorruptError carries the location and cause of a corruption finding.
type CorruptError struct {
	Path   string // offending file ("" when the damage is logical)
	Offset int64  // byte offset of the bad record, when known
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("%v: %s", ErrCorrupt, e.Reason)
	}
	return fmt.Sprintf("%v: %s at offset %d: %s", ErrCorrupt, e.Path, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Header identifies the router a journal belongs to, so recovery can
// rebuild the right facade before replaying a single entry.
type Header struct {
	Kind     string // "geo" or "ring"
	Dim      int    // torus dimension (geo)
	D        int    // hash choices per key
	Replicas int    // ring positions per server (ring)
}

// Options configures a log.
type Options struct {
	// NoSync buffers appends and skips fsync (writing past a size
	// threshold and on Sync, Compact and Close). Appends become cheap and
	// deterministic — for benchmarks and single-process labs — at the
	// cost of the durability guarantee a crash-consistent deployment
	// needs. Leave false for group-commit durable appends.
	NoSync bool

	// Metrics, when non-nil, receives the journal's counters: appends,
	// fsyncs, recoveries, truncated bytes.
	Metrics *Metrics
}

// Recovered reports what Open reconstructed.
type Recovered struct {
	Header Header

	// SnapshotLSN is the log sequence number the snapshot covers; WAL
	// records at or below it were skipped as already applied.
	SnapshotLSN uint64

	// Entries is the full replay sequence: the snapshot's state entries
	// followed by every WAL record past the snapshot LSN, in order.
	Entries []Entry

	// WALRecords counts the WAL records replayed (not skipped).
	WALRecords int

	// TruncatedBytes is how much of the WAL tail Open discarded as torn
	// or unreadable.
	TruncatedBytes int64
}

// Log is an open journal positioned to append. Safe for concurrent
// Append and AppendStriped from any number of goroutines; Sync, Compact
// and Close serialize with appends internally, but the caller owns
// making the *state* Compact snapshots consistent (the router stops the
// world around it).
//
// Lock order: stripe locks in ascending order, then mu.
type Log struct {
	dir  string
	opts Options
	hdr  Header

	stripes [stripeCount]stripe
	stopped atomic.Bool // set under mu once closed or err is: stagers read it without mu

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	seq     uint64 // last assigned LSN
	durable uint64 // last LSN known flushed (and fsynced, in sync mode)
	pending []byte // encoded frames awaiting write
	spare   []byte // recycled batch buffer for the group-commit swap
	leading bool   // a batch leader is writing outside the lock
	size    int64  // current WAL file size
	err     error  // sticky I/O error; the log is dead once set
	closed  bool
}

// stripe is one append stripe: entries staged by AppendStriped, each a
// uint32 length and the entry's encoding, awaiting their frames.
type stripe struct {
	mu  sync.Mutex
	buf []byte
	_   [32]byte // keep neighbouring stripes off each other's lines
}

func (l *Log) path(name string) string { return filepath.Join(l.dir, name) }

// WALPath returns the journal's write-ahead log file path (the crash
// lab truncates copies of this file at every record boundary).
func (l *Log) WALPath() string { return l.path(walName) }

// SnapshotPath returns the journal's snapshot file path.
func (l *Log) SnapshotPath() string { return l.path(snapName) }

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Options returns the options the log was created or opened with.
func (l *Log) Options() Options { return l.opts }

// LSN returns the last assigned log sequence number (staged entries
// get theirs when they are framed).
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// WALSize returns the current WAL file size in bytes (staged and
// buffered records excluded until they are written).
func (l *Log) WALSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Create initializes (or re-initializes — any prior journal in dir is
// replaced) a journal: a snapshot holding the given state entries at
// LSN 0 and an empty WAL. state is the full current router state, so
// the journal is self-contained from the moment of attachment.
func Create(dir string, hdr Header, state []Entry, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, hdr: hdr}
	l.cond = sync.NewCond(&l.mu)
	if err := l.writeSnapshot(0, state); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.path(walName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(walMagic); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	l.f = f
	l.size = int64(len(walMagic))
	return l, nil
}

// Open recovers the journal in dir: loads the snapshot, scans the WAL
// (physically truncating a torn tail), and returns the log positioned
// to append plus the replay sequence. Corruption beyond a torn tail
// yields an error wrapping ErrCorrupt.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	hdr, lsn, entries, err := readSnapshot(l.path(snapName))
	if err != nil {
		return nil, nil, err
	}
	l.hdr = hdr
	rec := &Recovered{Header: hdr, SnapshotLSN: lsn, Entries: entries}

	f, err := os.OpenFile(l.path(walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	buf, err := os.ReadFile(l.path(walName))
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	walPath := l.path(walName)
	validEnd := int64(0)
	lastSeq := lsn
	if len(buf) >= len(walMagic) {
		if string(buf[:len(walMagic)]) != walMagic {
			f.Close()
			return nil, nil, &CorruptError{Path: walPath, Offset: 0, Reason: "bad WAL magic"}
		}
		validEnd = int64(len(walMagic))
		recs, scanned, serr := scanFrames(walPath, buf[len(walMagic):], validEnd)
		if serr != nil {
			f.Close()
			return nil, nil, serr
		}
		validEnd += scanned
		prev := uint64(0)
		for _, r := range recs {
			if prev == 0 {
				if r.Seq > lsn+1 {
					f.Close()
					return nil, nil, &CorruptError{Path: walPath, Offset: r.End,
						Reason: fmt.Sprintf("LSN gap: snapshot covers %d, first record is %d", lsn, r.Seq)}
				}
			} else if r.Seq != prev+1 {
				f.Close()
				return nil, nil, &CorruptError{Path: walPath, Offset: r.End,
					Reason: fmt.Sprintf("LSN gap: %d follows %d", r.Seq, prev)}
			}
			prev = r.Seq
			if r.Seq > lsn {
				rec.Entries = append(rec.Entries, r.Entry)
				rec.WALRecords++
				lastSeq = r.Seq
			}
		}
	}
	rec.TruncatedBytes = int64(len(buf)) - validEnd
	if rec.TruncatedBytes > 0 {
		// A torn tail (or bytes past it) — truncate so new appends
		// start at the last durable record.
		if err := f.Truncate(validEnd); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	} else if len(buf) < len(walMagic) {
		// Empty or torn-at-creation WAL: reset to a bare magic.
		if err := f.Truncate(0); err == nil {
			if _, err = f.WriteString(walMagic); err == nil {
				err = f.Sync()
			}
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		validEnd = int64(len(walMagic))
	}
	if _, err := f.Seek(validEnd, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	l.f = f
	l.size = validEnd
	l.seq = lastSeq
	l.durable = lastSeq
	if m := opts.Metrics; m != nil {
		m.Recoveries.Inc(0)
		if rec.TruncatedBytes > 0 {
			m.TruncatedBytes.Add(0, rec.TruncatedBytes)
		}
	}
	return l, rec, nil
}

// RecordPos is one decoded WAL record with the byte offset of its
// frame end — the crash lab's unit of truncation.
type RecordPos struct {
	Seq   uint64
	End   int64 // offset just past this record's frame
	Entry Entry
}

// ScanWAL decodes a WAL file read-only, returning every valid record
// with its end offset and the offset where the valid prefix ends. It
// never modifies the file; Open performs the truncating variant.
func ScanWAL(path string) ([]RecordPos, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if len(buf) < len(walMagic) {
		return nil, 0, nil
	}
	if string(buf[:len(walMagic)]) != walMagic {
		return nil, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad WAL magic"}
	}
	base := int64(len(walMagic))
	recs, scanned, err := scanFrames(path, buf[base:], base)
	return recs, base + scanned, err
}

// scanFrames walks framed records in buf (which starts at file offset
// base), stopping at the first frame that reads as a torn write and
// returning how many bytes of valid records it consumed. A CRC-valid
// frame that fails to decode is corruption, not a torn write.
func scanFrames(path string, buf []byte, base int64) ([]RecordPos, int64, error) {
	var recs []RecordPos
	off := 0
	for {
		rest := buf[off:]
		if len(rest) < frameHdrLen {
			break // torn frame header
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > maxFrameLen {
			break // garbage length: unreachable by a real append, treat as torn
		}
		if uint32(len(rest)-frameHdrLen) < n {
			break // torn payload
		}
		payload := rest[frameHdrLen : frameHdrLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			break // torn or flipped bits: discard from here
		}
		seq, vn := binary.Uvarint(payload)
		if vn <= 0 {
			return nil, 0, &CorruptError{Path: path, Offset: base + int64(off), Reason: "bad record LSN"}
		}
		e, err := decodeEntry(payload[vn:])
		if err != nil {
			return nil, 0, &CorruptError{Path: path, Offset: base + int64(off), Reason: err.Error()}
		}
		off += frameHdrLen + int(n)
		recs = append(recs, RecordPos{Seq: seq, End: base + int64(off), Entry: e})
	}
	return recs, int64(off), nil
}

// openFrame appends a frame's header placeholder and the LSN seq to
// dst; the caller appends the entry encoding and seals the frame.
func openFrame(dst []byte, seq uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	return binary.AppendUvarint(dst, seq)
}

// sealFrame fills in the length and CRC of the frame opened at dst[at].
func sealFrame(dst []byte, at int) []byte {
	payload := dst[at+frameHdrLen:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Append durably records one mutation, framed at once, and returns
// once the record is on disk (group-committed with concurrent
// appenders); in NoSync mode it only buffers. The record precedes every
// entry staged after Append returns. A write error is sticky: once a
// write fails, the log refuses further appends. An entry the log could
// not read back is refused with ErrInvalidEntry, which is not.
func (l *Log) Append(e Entry) error {
	if err := CheckEntry(&e); err != nil {
		return err
	}
	l.mu.Lock()
	if err := l.refusedLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.seq++
	at := len(l.pending)
	l.pending = sealFrame(appendEntry(openFrame(l.pending, l.seq), &e), at)
	if m := l.opts.Metrics; m != nil {
		m.Appends.Inc(l.seq)
	}
	return l.commitLocked(l.seq, false)
}

// AppendStriped records es[i] on append stripe at[i] (modulo the stripe
// count): it stages the entries under their stripes' locks, taken in
// ascending order, and leaves the framing to the stripe's threshold in
// NoSync mode, or frames them before it returns in sync mode. Entries
// of one stripe are framed in staging order, so a caller keeps one
// key's records in order by staging them on one stripe. The call is
// staged or refused as a unit: a closed or failed log, or an entry the
// log could not read back (ErrInvalidEntry), refuses it with nothing
// staged. In sync mode it returns once the entries are durable,
// unless async, which leaves them to the next group commit: for records
// whose loss the caller can absorb (the router's rebalance, repair and
// migration updates, after whose loss recovery finds the key at its
// previous record).
func (l *Log) AppendStriped(at []int, es []Entry, async bool) error {
	for i := range es {
		if err := CheckEntry(&es[i]); err != nil {
			return err
		}
	}
	var mask uint64
	for _, s := range at {
		mask |= 1 << (uint(s) % stripeCount)
	}
	l.lockStripes(mask)
	if l.stopped.Load() {
		l.unlockStripes(mask)
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.refusedLocked()
	}
	for i := range es {
		st := &l.stripes[uint(at[i])%stripeCount]
		st.buf = stageEntry(st.buf, &es[i])
	}
	full := mask
	if l.opts.NoSync {
		full = 0
		for m := mask; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); len(l.stripes[i].buf) >= stripeFlush {
				full |= 1 << i
			}
		}
		if full == 0 {
			l.unlockStripes(mask)
			return nil
		}
	}
	l.mu.Lock()
	l.frameLocked(full)
	l.unlockStripes(mask)
	return l.commitLocked(l.seq, async)
}

// stageEntry appends e to a stripe buffer as a uint32 length and the
// entry's encoding.
func stageEntry(dst []byte, e *Entry) []byte {
	at := len(dst)
	dst = appendEntry(append(dst, 0, 0, 0, 0), e)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// frameLocked frames the staged entries of every stripe in mask into
// the pending buffer, stripe by stripe in staging order, and empties
// the stripes. Caller holds those stripes' locks and l.mu.
func (l *Log) frameLocked(mask uint64) {
	first := l.seq
	for m := mask; m != 0; m &= m - 1 {
		st := &l.stripes[bits.TrailingZeros64(m)]
		for b := st.buf; len(b) > 0; {
			n := 4 + int(binary.LittleEndian.Uint32(b))
			l.seq++
			at := len(l.pending)
			l.pending = sealFrame(append(openFrame(l.pending, l.seq), b[4:n]...), at)
			b = b[n:]
		}
		st.buf = st.buf[:0]
	}
	if m := l.opts.Metrics; m != nil && l.seq > first {
		m.Appends.Add(l.seq, int64(l.seq-first))
	}
}

// lockStripes locks the stripes in mask in ascending order.
func (l *Log) lockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		l.stripes[bits.TrailingZeros64(m)].mu.Lock()
	}
}

func (l *Log) unlockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		l.stripes[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// refusedLocked returns why the log refuses appends (ErrClosed or the
// sticky write error), nil while it takes them. Caller holds l.mu.
func (l *Log) refusedLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.err
}

// fail makes err the log's sticky error and returns it. Caller holds
// l.mu.
func (l *Log) fail(err error) error {
	l.err = err
	l.stopped.Store(true)
	return err
}

// commitLocked completes an append whose frames are in the pending
// buffer, with highest LSN seq. In NoSync mode, and for an async
// append, it only writes the buffer past its threshold — unless a
// group-commit leader owns the file, whose next batch carries the
// frames anyway. Otherwise it runs the group-commit protocol and
// returns once LSN seq is durable. Called with l.mu held; unlocks
// before returning.
func (l *Log) commitLocked(seq uint64, async bool) error {
	if l.opts.NoSync || async {
		var err error
		if len(l.pending) >= flushPending && !l.leading {
			err = l.flushLocked()
		}
		l.mu.Unlock()
		return err
	}
	// Group commit: wait while a leader is flushing a batch that does
	// not include us, then either find ourselves durable or lead the
	// next batch.
	for l.leading && l.durable < seq && l.err == nil {
		l.cond.Wait()
	}
	if l.closed {
		// Close raced in while we waited and wrote our records: they
		// are durable if its fsync succeeded.
		err := ErrClosed
		if l.durable >= seq {
			err = nil
		}
		l.mu.Unlock()
		return err
	}
	if l.err == nil && l.durable < seq {
		l.leading = true
		batch := l.pending
		if l.spare == nil {
			l.spare = make([]byte, 0, 1<<12)
		}
		l.pending = l.spare[:0]
		l.spare = nil
		high := l.seq
		l.mu.Unlock()
		_, werr := l.f.Write(batch)
		if werr == nil {
			werr = l.f.Sync()
		}
		l.mu.Lock()
		l.leading = false
		l.spare = batch[:0]
		if werr != nil {
			l.fail(fmt.Errorf("journal: append: %w", werr))
		} else {
			l.durable = high
			l.size += int64(len(batch))
			if m := l.opts.Metrics; m != nil {
				m.Fsyncs.Inc(seq)
			}
		}
		l.cond.Broadcast()
	}
	err := l.err
	l.mu.Unlock()
	return err
}

// flushLocked writes the pending buffer (no fsync). Caller holds l.mu
// and must have excluded a concurrent batch leader.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.pending) == 0 {
		return nil
	}
	n, err := l.f.Write(l.pending)
	l.size += int64(n)
	if err != nil {
		return l.fail(fmt.Errorf("journal: flush: %w", err))
	}
	l.pending = l.pending[:0]
	return nil
}

// waitIdleLocked blocks until no group-commit leader is writing
// outside the lock, so the caller may touch the file itself.
func (l *Log) waitIdleLocked() {
	for l.leading {
		l.cond.Wait()
	}
}

// Sync frames every staged entry, writes the buffered records and
// fsyncs the WAL.
func (l *Log) Sync() error {
	l.lockStripes(allStripes)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		l.unlockStripes(allStripes)
		return ErrClosed
	}
	l.frameLocked(allStripes)
	l.unlockStripes(allStripes)
	l.waitIdleLocked()
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("journal: sync: %w", err))
	}
	l.durable = l.seq
	if m := l.opts.Metrics; m != nil {
		m.Fsyncs.Inc(l.seq)
	}
	return nil
}

// Compact replaces the snapshot with the given full state at the
// current LSN and resets the WAL. The caller must guarantee state is
// consistent with every append issued so far and that no append runs
// concurrently (the router wraps this in its stop-the-world capture).
// Crash-safe: the snapshot is replaced atomically, and a crash before
// the WAL reset only leaves records the next Open skips by LSN.
func (l *Log) Compact(state []Entry) error {
	l.lockStripes(allStripes)
	defer l.unlockStripes(allStripes)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusedLocked(); err != nil {
		return err
	}
	l.waitIdleLocked()
	if err := l.writeSnapshot(l.seq, state); err != nil {
		return err
	}
	// The snapshot covers every buffered record (LSN at most l.seq) and
	// every staged one: drop them.
	l.pending = l.pending[:0]
	for i := range l.stripes {
		l.stripes[i].buf = l.stripes[i].buf[:0]
	}
	dropped := l.size - int64(len(walMagic))
	err := l.f.Truncate(int64(len(walMagic)))
	if err == nil {
		_, err = l.f.Seek(int64(len(walMagic)), 0)
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return l.fail(fmt.Errorf("journal: compact: %w", err))
	}
	l.size = int64(len(walMagic))
	l.durable = l.seq
	if m := l.opts.Metrics; m != nil && dropped > 0 {
		m.TruncatedBytes.Add(0, dropped)
	}
	return nil
}

// Close frames every staged entry, writes the buffered records, fsyncs,
// and closes the WAL. An AppendStriped racing Close either is staged
// before it, and written, or refused with nothing staged.
func (l *Log) Close() error {
	l.lockStripes(allStripes)
	defer l.unlockStripes(allStripes)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.waitIdleLocked()
	l.closed = true
	l.stopped.Store(true)
	l.frameLocked(allStripes)
	err := l.flushLocked()
	if serr := l.f.Sync(); err == nil && serr != nil {
		err = fmt.Errorf("journal: close: %w", serr)
	}
	if err == nil {
		l.durable = l.seq
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	return err
}

// writeSnapshot atomically replaces the snapshot file with (lsn,
// state). A state entry the log could not read back refuses the whole
// snapshot (ErrInvalidEntry) before any file is touched. Caller holds
// l.mu (or is constructing the log).
func (l *Log) writeSnapshot(lsn uint64, state []Entry) error {
	buf := make([]byte, 0, 1<<12)
	buf = append(buf, snapMagic...)
	hdr := make([]byte, 0, 64)
	hdr = appendString(hdr, l.hdr.Kind)
	hdr = binary.AppendUvarint(hdr, uint64(l.hdr.Dim))
	hdr = binary.AppendUvarint(hdr, uint64(l.hdr.D))
	hdr = binary.AppendUvarint(hdr, uint64(l.hdr.Replicas))
	hdr = binary.AppendUvarint(hdr, lsn)
	buf = appendRawFrame(buf, hdr)
	scratch := make([]byte, 0, 256)
	for i := range state {
		if err := CheckEntry(&state[i]); err != nil {
			return err
		}
		scratch = appendEntry(scratch[:0], &state[i])
		buf = appendRawFrame(buf, scratch)
	}
	tmp := l.path(snapTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path(snapName))
	}
	if err == nil {
		err = syncDir(l.dir)
	}
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	return nil
}

// appendRawFrame frames an un-sequenced payload (snapshot records).
func appendRawFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// readSnapshot loads and validates a snapshot file. Snapshots are
// written atomically, so unlike the WAL any damage here — a torn
// frame included — is corruption, not a tolerable crash artifact.
func readSnapshot(path string) (Header, uint64, []Entry, error) {
	var hdr Header
	buf, err := os.ReadFile(path)
	if err != nil {
		return hdr, 0, nil, fmt.Errorf("journal: %w", err)
	}
	if len(buf) < len(snapMagic) || string(buf[:len(snapMagic)]) != snapMagic {
		return hdr, 0, nil, &CorruptError{Path: path, Offset: 0, Reason: "bad snapshot magic"}
	}
	off := int64(len(snapMagic))
	rest := buf[off:]
	frame := func() ([]byte, error) {
		if len(rest) < frameHdrLen {
			return nil, &CorruptError{Path: path, Offset: off, Reason: "truncated snapshot frame"}
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > maxFrameLen || uint32(len(rest)-frameHdrLen) < n {
			return nil, &CorruptError{Path: path, Offset: off, Reason: "bad snapshot frame length"}
		}
		payload := rest[frameHdrLen : frameHdrLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return nil, &CorruptError{Path: path, Offset: off, Reason: "snapshot CRC mismatch"}
		}
		rest = rest[frameHdrLen+int(n):]
		off += int64(frameHdrLen) + int64(n)
		return payload, nil
	}
	hp, err := frame()
	if err != nil {
		return hdr, 0, nil, err
	}
	d := decoder{b: hp}
	hdr.Kind = d.str()
	hdr.Dim = int(d.uvarint())
	hdr.D = int(d.uvarint())
	hdr.Replicas = int(d.uvarint())
	lsn := d.uvarint()
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing header bytes", len(d.b))
	}
	if d.err == nil && hdr.Kind != "geo" && hdr.Kind != "ring" {
		d.fail("unknown router kind %q", hdr.Kind)
	}
	if d.err != nil {
		return hdr, 0, nil, &CorruptError{Path: path, Reason: "snapshot header: " + d.err.Error()}
	}
	var entries []Entry
	for len(rest) > 0 {
		p, err := frame()
		if err != nil {
			return hdr, 0, nil, err
		}
		e, err := decodeEntry(p)
		if err != nil {
			return hdr, 0, nil, &CorruptError{Path: path, Offset: off, Reason: err.Error()}
		}
		entries = append(entries, e)
	}
	return hdr, lsn, entries, nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
