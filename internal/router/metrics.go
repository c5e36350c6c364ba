// Optional instrumentation for the serving core: a Metrics instrument
// set the hot paths update through nil-checked hooks, plus scrape-time
// collectors over the state the router already maintains.
//
// The contract mirrors internal/metrics' design: a router with no
// metrics attached pays one atomic pointer load and a predictable
// branch per operation — nothing else, and never an allocation (the
// AllocsPerRun guards in metrics_alloc_test.go pin this with metrics
// both off and on). The counter updates reuse the key's first-choice
// hash h0 as the shard hint, so concurrent traffic stripes across the
// counter's cache lines exactly as it stripes across the key shards.
package router

import "geobalance/internal/metrics"

// Metrics is the serving core's instrument set. Every field is a
// sharded counter updated on the corresponding code path; attach a set
// with SetMetrics (or build, attach, and register collectors in one
// call with Instrument). Fields are exported so harnesses can read or
// pre-register them, but most callers only ever pass the struct around.
type Metrics struct {
	Places           *metrics.Counter // keys placed (replica sets count once)
	Locates          *metrics.Counter // Locate/LocateAny calls that served a record
	Removes          *metrics.Counter // keys removed
	Failovers        *metrics.Counter // LocateAny reads served by a non-primary replica
	NoLiveReplica    *metrics.Counter // LocateAny reads with every replica dead
	RebalancedKeys   *metrics.Counter // keys re-homed by Rebalance
	RepairedKeys     *metrics.Counter // keys whose replica sets Repair refilled
	LostKeys         *metrics.Counter // repaired keys that had lost every replica
	MigrationApplied *metrics.Counter // migration deltas committed by ApplyBatch
	MigrationSkipped *metrics.Counter // migration deltas dropped as stale
	Forwards         *metrics.Counter // bounded-load: saturated candidates forwarded past
	Rejects          *metrics.Counter // bounded-load: placements refused with ErrOverloaded
}

// NewMetrics builds (or retrieves — registration is idempotent) the
// router's instrument set on reg under the standard router_* names.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Places:           reg.Counter("router_places_total", "keys placed"),
		Locates:          reg.Counter("router_locates_total", "lookups served (Locate and LocateAny)"),
		Removes:          reg.Counter("router_removes_total", "keys removed"),
		Failovers:        reg.Counter("router_failovers_total", "failover reads served by a non-primary replica"),
		NoLiveReplica:    reg.Counter("router_no_live_replica_total", "reads that found every replica dead"),
		RebalancedKeys:   reg.Counter("router_rebalanced_keys_total", "keys re-homed by Rebalance"),
		RepairedKeys:     reg.Counter("router_repaired_keys_total", "keys whose replica set Repair refilled"),
		LostKeys:         reg.Counter("router_lost_keys_total", "repaired keys that had lost every replica"),
		MigrationApplied: reg.Counter("router_migration_applied_total", "migration deltas committed"),
		MigrationSkipped: reg.Counter("router_migration_skipped_total", "migration deltas skipped as stale"),
		Forwards:         reg.Counter("router_forwards_total", "saturated candidates forwarded past by bounded-load admission"),
		Rejects:          reg.Counter("router_rejects_total", "placements refused because every candidate was saturated"),
	}
}

// SetMetrics attaches (or, with nil, detaches) an instrument set. Safe
// to call while traffic runs: the pointer is swapped atomically and
// in-flight operations finish against whichever set they loaded.
func (r *Router) SetMetrics(m *Metrics) { r.met.Store(m) }

// RegisterSlotLoads registers the scrape-time collectors over the
// router's live state: the per-server load family plus max-load,
// key-count, and live-server gauges. Collectors are re-bindable (see
// metrics.GaugeVec), so a harness building a fresh router per run can
// call this again to re-point them.
func (r *Router) RegisterSlotLoads(reg *metrics.Registry) {
	reg.GaugeVec("router_server_load", "current keys per live server", "server",
		func(emit func(string, float64)) {
			t := r.snap.Load()
			for i, name := range t.Names {
				if !t.Dead[i] {
					emit(name, float64(t.Loads[i].Total()))
				}
			}
		})
	reg.GaugeFunc("router_max_load", "largest key count over live servers",
		func() float64 { return float64(r.MaxLoad()) })
	reg.GaugeFunc("router_keys", "currently placed keys",
		func() float64 { return float64(r.nkeys.Load()) })
	reg.GaugeFunc("router_live_servers", "live servers",
		func() float64 { return float64(r.NumServers()) })
}

// Instrument is the one-call wiring: build the instrument set on reg,
// attach it, register the load collectors, and return the set.
func (r *Router) Instrument(reg *metrics.Registry) *Metrics {
	m := NewMetrics(reg)
	r.SetMetrics(m)
	r.RegisterSlotLoads(reg)
	return m
}
