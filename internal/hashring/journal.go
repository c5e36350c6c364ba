// Durability for the ring facade: the write-ahead journal hook, the
// recovery constructor and the in-place restart. The mechanics live in
// internal/journal and the serving core's journal.go
// (router.Membership); this file only supplies the ring-shaped header
// and the membership ops replay drives. Unlike the geo facade, ring
// membership entries carry no coordinates — server positions are a
// pure function of the name, so replaying the adds reproduces the
// ring bit-for-bit.
package hashring

import (
	"fmt"

	"geobalance/internal/journal"
	"geobalance/internal/router"
)

// header is the ring's journal header.
func (r *Ring) header() journal.Header {
	return journal.Header{Kind: "ring", D: r.Choices(), Replicas: r.replicas}
}

// StartJournal makes the ring durable: it creates a journal in dir
// (replacing any prior journal there) seeded with the full current
// state, attaches it, and records every subsequent mutation. Recover
// the ring with Recover, or in place with Restart.
func (r *Ring) StartJournal(dir string, opts journal.Options) (*journal.Log, error) {
	return r.m.StartJournal(dir, r.header(), nil, opts)
}

// CompactJournal folds the journal's WAL into a fresh snapshot; see
// router.Membership.CompactJournal.
func (r *Ring) CompactJournal() error { return r.m.CompactJournal(nil) }

// Restart crashes the ring and recovers it in place from its attached
// journal through Recover; see router.Membership.Restart.
func (r *Ring) Restart() (*journal.Recovered, error) {
	return r.m.Restart(r.header(), func(dir string, opts journal.Options) (*router.Router, *journal.Recovered, error) {
		fresh, rec, err := Recover(dir, opts)
		if err != nil {
			return nil, nil, err
		}
		return fresh.Router, rec, nil
	})
}

// Recover rebuilds a ring from the journal in dir — snapshot plus WAL
// replay — and returns it with the journal attached and positioned to
// append. The recovered ring holds exactly the recorded state, which
// may include records stranded on dead servers; run Repair and
// Rebalance before CheckInvariants, as after any failure. Corruption
// beyond a torn WAL tail yields an error wrapping journal.ErrCorrupt.
func Recover(dir string, opts journal.Options) (*Ring, *journal.Recovered, error) {
	lg, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	var rg *Ring
	if rec.Header.Kind != "ring" {
		err = &journal.CorruptError{Reason: fmt.Sprintf("journal is for a %q router, not ring", rec.Header.Kind)}
	} else if rg, err = New(nil, WithChoices(rec.Header.D), WithReplicas(rec.Header.Replicas)); err != nil {
		err = &journal.CorruptError{Reason: err.Error()}
	} else {
		err = rg.m.Replay(rec.Entries, rg.replayAdd, rg.RemoveServer)
	}
	if err != nil {
		lg.Close()
		return nil, nil, err
	}
	rg.m.SetJournal(lg)
	return rg, rec, nil
}

// replayAdd replays a server add at its captured capacity.
func (rg *Ring) replayAdd(e *journal.Entry) error { return rg.addServer(e.Name, e.Value) }
