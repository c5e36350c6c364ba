// Entry: the journal's logical record — one router mutation in a
// compact, self-describing binary encoding.
//
// The journal deliberately defines its own mutation vocabulary instead
// of importing the router's internal types: internal/router imports
// this package (the same direction as its metrics hook), so the codec
// here must stand alone. An Entry is either a membership mutation
// (add/remove server, capacity, drain, replication, bounded-load
// factor) or a key-record mutation (place, update, remove) carrying
// the exact replica record the router stored — slots and choice
// indices, NOT inputs to re-run the d-choice rule. Replaying a record
// re-installs the recorded outcome verbatim, which is what makes
// recovery deterministic: the d-choice comparison depends on load
// counters and racing traffic, but the recorded outcome does not.
//
// Encoding: one op byte, then op-specific fields — strings as uvarint
// length + bytes, floats as 8-byte little-endian IEEE bits, counts as
// uvarints. Decoding is strict: every field bounds-checked, and a
// payload must be consumed exactly. Framing (length + CRC) is the log
// layer's job; see log.go.
package journal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Op identifies the mutation an Entry records.
type Op uint8

const (
	// OpAddServer adds (or revives) a server: Name, Value (capacity),
	// and for geographic routers Coords (torus position).
	OpAddServer Op = 1 + iota
	// OpRemoveServer marks the named server dead.
	OpRemoveServer
	// OpSetCapacity sets the named server's relative capacity (Value).
	OpSetCapacity
	// OpSetDraining sets or clears (Flag) the named server's drain mark.
	OpSetDraining
	// OpSetReplication sets the replicas-per-key factor (Count).
	OpSetReplication
	// OpSetBoundedLoad sets the bounded-load admission factor (Value;
	// 0 disables).
	OpSetBoundedLoad
	// OpPlace records a fresh key placement: Name (the key) and Rec.
	OpPlace
	// OpRemoveKey records a key removal: Name (the key).
	OpRemoveKey
	// OpUpdateRec replaces an existing key's record (rebalance, repair,
	// migration): Name (the key) and Rec.
	OpUpdateRec

	opMax = OpUpdateRec
)

func (op Op) String() string {
	switch op {
	case OpAddServer:
		return "add-server"
	case OpRemoveServer:
		return "remove-server"
	case OpSetCapacity:
		return "set-capacity"
	case OpSetDraining:
		return "set-draining"
	case OpSetReplication:
		return "set-replication"
	case OpSetBoundedLoad:
		return "set-bounded-load"
	case OpPlace:
		return "place"
	case OpRemoveKey:
		return "remove-key"
	case OpUpdateRec:
		return "update-rec"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

const (
	// MaxReplicas mirrors the router's replica bound so Rec stays a
	// fixed-size value.
	MaxReplicas = 4

	// maxStringLen bounds encoded server names and keys.
	maxStringLen = 1 << 16

	// maxCoords bounds the torus dimension a record may carry (the
	// router's MaxGeoDim is 8; leave headroom).
	maxCoords = 16

	// maxSalt mirrors the router's MaxChoices bound on choice indices.
	maxSalt = 127
)

// Rec is the journaled form of a key's replica record: which slots
// hold the key and which of the d hash choices each replica won.
type Rec struct {
	N     int // replica count, 1 <= N <= MaxReplicas
	Slots [MaxReplicas]int32
	Salts [MaxReplicas]int8
}

// Entry is one journaled router mutation. Name holds the server name
// for membership ops and the key for key-record ops; the remaining
// fields are op-specific (see the Op constants).
type Entry struct {
	Op     Op
	Name   string
	Value  float64   // capacity or bounded-load factor
	Flag   bool      // draining
	Count  int       // replication factor
	Coords []float64 // torus position (OpAddServer on geo routers; nil = origin)
	Rec    Rec
}

// appendEntry appends e's encoding to dst.
func appendEntry(dst []byte, e *Entry) []byte {
	dst = append(dst, byte(e.Op))
	switch e.Op {
	case OpAddServer:
		dst = appendString(dst, e.Name)
		dst = appendFloat(dst, e.Value)
		dst = binary.AppendUvarint(dst, uint64(len(e.Coords)))
		for _, c := range e.Coords {
			dst = appendFloat(dst, c)
		}
	case OpRemoveServer, OpRemoveKey:
		dst = appendString(dst, e.Name)
	case OpSetCapacity:
		dst = appendString(dst, e.Name)
		dst = appendFloat(dst, e.Value)
	case OpSetDraining:
		dst = appendString(dst, e.Name)
		b := byte(0)
		if e.Flag {
			b = 1
		}
		dst = append(dst, b)
	case OpSetReplication:
		dst = binary.AppendUvarint(dst, uint64(e.Count))
	case OpSetBoundedLoad:
		dst = appendFloat(dst, e.Value)
	case OpPlace, OpUpdateRec:
		dst = appendString(dst, e.Name)
		dst = append(dst, byte(e.Rec.N))
		for i := 0; i < e.Rec.N; i++ {
			dst = binary.AppendUvarint(dst, uint64(e.Rec.Slots[i]))
			dst = append(dst, byte(e.Rec.Salts[i]))
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// decoder is a strict cursor over an entry payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.fail("string length %d exceeds %d", n, maxStringLen)
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// CheckEntry returns an error wrapping ErrInvalidEntry when
// decodeEntry would reject e's encoding: a name or key past
// maxStringLen bytes, more than maxCoords coordinates, a replica count,
// slot, choice index or replication factor outside its bound, or an
// unknown op. Append, AppendStriped and the snapshot writer call it
// before they stage or write anything, so the journal never holds a
// record it cannot read back; a caller that stages many entries as one
// unit calls it per entry first, to refuse only the unreadable ones.
func CheckEntry(e *Entry) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: entry %v: %s", ErrInvalidEntry, e.Op, fmt.Sprintf(format, args...))
	}
	switch e.Op {
	case OpSetReplication:
		if e.Count < 1 || e.Count > MaxReplicas {
			return bad("replication factor %d outside [1, %d]", e.Count, MaxReplicas)
		}
		return nil
	case OpSetBoundedLoad:
		return nil
	case OpAddServer:
		if len(e.Coords) > maxCoords {
			return bad("coordinate count %d exceeds %d", len(e.Coords), maxCoords)
		}
	case OpPlace, OpUpdateRec:
		if e.Rec.N < 1 || e.Rec.N > MaxReplicas {
			return bad("replica count %d outside [1, %d]", e.Rec.N, MaxReplicas)
		}
		for i := 0; i < e.Rec.N; i++ {
			if e.Rec.Slots[i] < 0 {
				return bad("slot %d is negative", e.Rec.Slots[i])
			}
			if e.Rec.Salts[i] < 0 {
				return bad("choice index %d is negative", e.Rec.Salts[i])
			}
		}
	case OpRemoveServer, OpRemoveKey, OpSetCapacity, OpSetDraining:
	default:
		return bad("unknown op %d", uint8(e.Op))
	}
	if len(e.Name) > maxStringLen {
		return bad("string length %d exceeds %d", len(e.Name), maxStringLen)
	}
	return nil
}

// decodeEntry decodes one entry payload, validating every field bound
// and requiring the payload to be consumed exactly.
func decodeEntry(b []byte) (Entry, error) {
	d := decoder{b: b}
	var e Entry
	e.Op = Op(d.byte())
	switch e.Op {
	case OpAddServer:
		e.Name = d.str()
		e.Value = d.float()
		nc := d.uvarint()
		if d.err == nil && nc > maxCoords {
			d.fail("coordinate count %d exceeds %d", nc, maxCoords)
		}
		if d.err == nil && nc > 0 {
			e.Coords = make([]float64, nc)
			for i := range e.Coords {
				e.Coords[i] = d.float()
			}
		}
	case OpRemoveServer, OpRemoveKey:
		e.Name = d.str()
	case OpSetCapacity:
		e.Name = d.str()
		e.Value = d.float()
	case OpSetDraining:
		e.Name = d.str()
		switch d.byte() {
		case 0:
		case 1:
			e.Flag = true
		default:
			d.fail("bad drain flag")
		}
	case OpSetReplication:
		e.Count = int(d.uvarint())
		if d.err == nil && (e.Count < 1 || e.Count > MaxReplicas) {
			d.fail("replication factor %d outside [1, %d]", e.Count, MaxReplicas)
		}
	case OpSetBoundedLoad:
		e.Value = d.float()
	case OpPlace, OpUpdateRec:
		e.Name = d.str()
		e.Rec.N = int(d.byte())
		if d.err == nil && (e.Rec.N < 1 || e.Rec.N > MaxReplicas) {
			d.fail("replica count %d outside [1, %d]", e.Rec.N, MaxReplicas)
		}
		for i := 0; d.err == nil && i < e.Rec.N; i++ {
			s := d.uvarint()
			if d.err == nil && s > math.MaxInt32 {
				d.fail("slot %d overflows int32", s)
			}
			e.Rec.Slots[i] = int32(s)
			salt := d.byte()
			if d.err == nil && salt > maxSalt {
				d.fail("choice index %d exceeds %d", salt, maxSalt)
			}
			e.Rec.Salts[i] = int8(salt)
		}
	default:
		d.fail("unknown op %d", uint8(e.Op))
	}
	if d.err != nil {
		return Entry{}, fmt.Errorf("entry %v: %w", e.Op, d.err)
	}
	if len(d.b) != 0 {
		return Entry{}, fmt.Errorf("entry %v: %d trailing bytes", e.Op, len(d.b))
	}
	return e, nil
}
