// Optional instrumentation for the journal, on the same contract as
// the router's: a log with no metrics attached pays one nil check per
// operation and nothing else.
package journal

import "geobalance/internal/metrics"

// Metrics is the journal's instrument set. Attach one via
// Options.Metrics when creating or opening a log.
type Metrics struct {
	Appends        *metrics.Counter // records framed into the WAL (staged ones count once framed)
	Fsyncs         *metrics.Counter // WAL fsyncs (group commit batches, not records)
	Recoveries     *metrics.Counter // journals recovered by Open
	TruncatedBytes *metrics.Counter // WAL bytes discarded: torn tails + compacted prefixes
}

// NewMetrics builds (or retrieves — registration is idempotent) the
// journal's instrument set on reg under the standard journal_* names.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Appends:        reg.Counter("journal_appends_total", "mutation records appended to the WAL"),
		Fsyncs:         reg.Counter("journal_fsyncs_total", "WAL fsyncs (one per group-commit batch)"),
		Recoveries:     reg.Counter("journal_recoveries_total", "journal recoveries performed by Open"),
		TruncatedBytes: reg.Counter("journal_truncated_bytes", "WAL bytes discarded as torn tails or compacted prefixes"),
	}
}
