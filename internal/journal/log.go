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
// Appends group-commit: concurrent appenders encode into a shared
// buffer under the log mutex, one of them becomes the batch leader and
// writes + fsyncs the whole buffer while later appenders form the next
// batch, and every Append returns only once its own record is durable.
// With Options.NoSync the log instead buffers appends and flushes
// without fsync (for benchmarks and single-threaded labs where
// durability is asserted by explicit Close).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
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
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every corruption error the package returns:
// a journal that is damaged beyond the torn-tail repair Open performs
// silently. Match with errors.Is.
var ErrCorrupt = errors.New("journal corrupt")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("journal closed")

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
	// NoSync buffers appends and skips fsync (flushing past a size
	// threshold and on Close/Compact). Appends become cheap and
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
// Append from any number of goroutines; Compact and Close serialize
// with appends internally, but the caller owns making the *state* they
// snapshot consistent (the router stops the world around Compact).
type Log struct {
	dir  string
	opts Options
	hdr  Header

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

func (l *Log) path(name string) string { return filepath.Join(l.dir, name) }

// WALPath returns the journal's write-ahead log file path (the crash
// lab truncates copies of this file at every record boundary).
func (l *Log) WALPath() string { return l.path(walName) }

// SnapshotPath returns the journal's snapshot file path.
func (l *Log) SnapshotPath() string { return l.path(snapName) }

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// LSN returns the last assigned log sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// WALSize returns the current WAL file size in bytes (pending
// unflushed NoSync appends excluded).
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

// appendFrame appends the framed record (seq, e) to dst.
func appendFrame(dst []byte, seq uint64, e *Entry) []byte {
	hdrAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, seq)
	dst = appendEntry(dst, e)
	payload := dst[hdrAt+frameHdrLen:]
	binary.LittleEndian.PutUint32(dst[hdrAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[hdrAt+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Append durably records one mutation and returns once the record is
// on disk (group-committed with concurrent appenders). In NoSync mode
// it only buffers. The returned error is sticky: once an append fails,
// the log refuses further writes.
func (l *Log) Append(e Entry) error {
	return l.AppendBatch([]Entry{e}) // es does not escape: the slice stays on the stack
}

// AppendBatch durably records a block of mutations with consecutive
// LSNs and returns once the whole block is on disk — one group-commit
// fsync covers every record (amortized further by concurrent
// appenders), never one per entry. Entries are framed under the log
// mutex, so no other record interleaves within the block, but the
// block is NOT atomic under a crash: a torn tail can leave a durable
// prefix of it, exactly as if the entries had been appended one at a
// time. Callers must therefore journal batches whose per-entry prefix
// is a valid state — the router's per-key placements are.
func (l *Log) AppendBatch(es []Entry) error {
	if len(es) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	for i := range es {
		l.seq++
		l.pending = appendFrame(l.pending, l.seq, &es[i])
	}
	seq := l.seq
	if m := l.opts.Metrics; m != nil {
		m.Appends.Add(seq, int64(len(es)))
	}
	return l.commitAppended(seq)
}

// commitAppended completes an Append/AppendBatch whose frames are
// already in the pending buffer with highest LSN seq: NoSync mode just
// flushes past the threshold; otherwise it runs the group-commit
// protocol and returns once LSN seq is durable. Called with l.mu held;
// unlocks before returning.
func (l *Log) commitAppended(seq uint64) error {
	if l.opts.NoSync {
		var err error
		if len(l.pending) >= flushPending {
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
		// Close raced in while we waited; it flushed our record, but
		// the durable ack is gone with the file handle.
		l.mu.Unlock()
		return ErrClosed
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
			l.err = fmt.Errorf("journal: append: %w", werr)
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

// AppendAsync records a mutation without waiting for durability: the
// record joins the pending batch and reaches disk with the next
// group-commit, Sync, Compact, or Close. For mutations whose loss is
// benign — rebalance/repair/migration record updates, where recovery
// simply re-homes the key from its previous record with nothing lost.
// Placements and removals must use Append.
func (l *Log) AppendAsync(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.seq++
	l.pending = appendFrame(l.pending, l.seq, &e)
	if m := l.opts.Metrics; m != nil {
		m.Appends.Inc(l.seq)
	}
	// Opportunistic backpressure; skipped while a group-commit leader
	// owns the file, whose next batch will carry these records anyway.
	if len(l.pending) >= flushPending && !l.leading {
		return l.flushLocked()
	}
	return nil
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
		l.err = fmt.Errorf("journal: flush: %w", err)
		return l.err
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

// Sync flushes buffered appends and fsyncs the WAL.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.waitIdleLocked()
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("journal: sync: %w", err)
		return l.err
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
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.waitIdleLocked()
	// Pending records are at or below l.seq, hence covered by the
	// snapshot about to be written: drop them.
	l.pending = l.pending[:0]
	if err := l.writeSnapshot(l.seq, state); err != nil {
		return err
	}
	dropped := l.size - int64(len(walMagic))
	if err := l.f.Truncate(int64(len(walMagic))); err == nil {
		if _, err2 := l.f.Seek(int64(len(walMagic)), 0); err2 != nil {
			err = err2
		} else {
			err = l.f.Sync()
		}
	} else {
		l.err = fmt.Errorf("journal: compact: %w", err)
		return l.err
	}
	l.size = int64(len(walMagic))
	l.durable = l.seq
	if m := l.opts.Metrics; m != nil && dropped > 0 {
		m.TruncatedBytes.Add(0, dropped)
	}
	return nil
}

// Close flushes buffered appends, fsyncs, and closes the WAL.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.waitIdleLocked()
	l.closed = true
	err := l.flushLocked()
	if serr := l.f.Sync(); err == nil && serr != nil {
		err = fmt.Errorf("journal: close: %w", serr)
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	return err
}

// writeSnapshot atomically replaces the snapshot file with (lsn,
// state). Caller holds l.mu (or is constructing the log).
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
