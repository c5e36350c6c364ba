// Package geobalance is a production-quality Go reproduction of
// "Geometric Generalizations of the Power of Two Choices" (Byers,
// Considine, Mitzenmacher; SPAA 2004): the power-of-d-choices load
// balancing paradigm in geometric spaces where servers own their
// nearest-neighbor regions and are therefore selected with non-uniform
// probability.
//
// The root package carries the repository-level benchmark harness
// (bench_test.go), with one benchmark family per table and figure of the
// paper. The implementation lives under internal/:
//
//	internal/core      the geometric d-choice allocator (the paper's contribution)
//	internal/ring      the 1-D ring of Theorem 1 (consistent-hashing arcs)
//	internal/torus     the k-D torus of Section 3 with a grid NN index
//	internal/jump      constant-time jump-index lookup over sorted values
//	internal/voronoi   exact Voronoi cells and areas on the 2-D torus
//	internal/balls     classical uniform balls-into-bins baselines
//	internal/chord     Chord DHT simulator (the Section 1.1 application)
//	internal/router    space-agnostic concurrent serving core + torus-backed Geo router
//	internal/hashring  ring-backed facade over the serving core (consistent-hash router)
//	internal/journal   write-ahead journal + snapshot/compaction for durable router state
//	internal/loadgen   multi-goroutine skewed-traffic load-test harness (any router)
//	internal/workload  Zipf / bounded-Pareto popularity and size distributions
//	internal/tailbound the paper's lemma bounds and empirical verifiers
//	internal/fluid     fluid-limit ODE predictor for the uniform case
//	internal/queueing  supermarket-model queueing simulation (d-choice waiting times)
//	internal/metrics   dependency-free live-metrics registry (Prometheus + expvar output)
//	internal/viz       SVG Voronoi/heatmap renderers and the ANSI terminal heatmap
//	internal/sim       parallel deterministic experiment harness
//	internal/stats     histograms, summaries, and HDR-style latency quantiles
//	internal/geom      shared geometry primitives
//	internal/rng       fast deterministic PRNG (xoshiro256++/SplitMix64)
//	internal/integration cross-package end-to-end suites
//
// # Fast-path architecture
//
// The placement hot path is constant-time and allocation-free, which is
// what lets the default benchmark sweep reach the paper's n = 2^20
// scale in-process:
//
//   - internal/ring stores its sorted sites in internal/jump's form —
//     raw IEEE bit patterns plus a one-bucket-per-site jump index — so
//     resolving a location is O(1) expected with branch-free mask
//     arithmetic, replacing the seed's O(log n) binary search.
//   - internal/torus stores site coordinates twice: the public
//     site-indexed view, and a flat buffer permuted into grid-cell
//     (CSR) order that the nearest-site kernels scan as contiguous
//     slot runs (a row of adjacent cells is one run). perm/slotOf map
//     cell slots to public site indices and back, so the public index
//     contract — Site, Sites, SetWeights, Reseed, returned bins — is
//     untouched by the permutation. Dim-specialized kernels for 2-D
//     and 3-D unroll the wrapped distance branch-free, precompute
//     wrapped row/plane offset tables, and fuse the first two search
//     shells; one shell walk (walk) scans the shells beyond as
//     last-axis slot runs for every dimension, from the home cell on
//     for dims other than 2 and 3. Wrapped-Chebyshev shell
//     enumeration scans every cell at most once per query. Measured:
//     Nearest at n=2^16 dropped from ~488 to ~119 ns (dim 2) and ~900
//     to ~370 ns (dim 3).
//   - internal/torus.NearestBatch is the bulk-nearest kernel behind
//     blocked placement (mirrored by ring.NearestBatch for interface
//     symmetry): a block's queries are counting-sorted into grid-cell
//     order and answered by staged, register-resident scan loops over
//     the cell-CSR index the scalar kernels read, a query's fused 3x3
//     home block staged as three row runs (nine z-column runs for the
//     3x3x3 brick in dim 3). Uncertified queries settle through a flat
//     5x5 scan and, in the vanishing residue, the shared shell walk;
//     other dimensions answer each sorted query with the scalar
//     any-dimension kernel.
//     Results are identical to per-query Nearest; with caller-owned
//     scratch (NearestBatchInto) batches may run concurrently over one
//     unchanging Space.
//   - internal/core writes the d-choice rule once, in pick; every entry
//     point reaches it. core.PlaceBatch is the bulk API: one three-phase
//     block pipeline for every space and configuration — draw a block's
//     variates in Place's exact order into flat buffers, resolve the
//     block's d*B candidate locations in bulk (jump.LocateBlock on a
//     structurally matched jump-index space like the ring,
//     NearestBatch on the torus; the uniform space and any other Space
//     draw bins directly), then pick and commit ball by ball, with one
//     branch-free pair commit for Tables 1-2's d=2 random-tie
//     configuration. Allocator-owned scratch keeps it at zero
//     allocations per ball. The tie-variate contract (one
//     unconditional tie variate per candidate after the first under
//     random ties) makes the variate schedule static, so the pipeline
//     is bit-identical to sequential Place for every space, dim x d x
//     tie x stratification configuration and capacity setting.
//     core.PlaceBatchParallel shards the torus resolve phase across
//     GOMAXPROCS workers with the same bit-identical trace.
//   - internal/ring.Reseed and internal/torus.Reseed redraw an existing
//     space in place (an O(n) counting sort on the ring), and
//     internal/sim's *Pooled trial factories give each worker one
//     long-lived space, allocator, and in-place-reseeded generator
//     across trials — the pooled trial loop is allocation-free.
//
// # Serving-layer architecture
//
// The serving path is split into a space-agnostic core and per-space
// facades, mirroring the paper's structure (the d-choice scheme is the
// same on every geometry; only the metric changes):
//
//   - internal/router owns the generic serving machinery once: the
//     membership (slot tables, capacities, live set) plus its geometry
//     lives in an immutable snapshot published through an
//     atomic.Pointer — membership ops copy-on-write a clone through a
//     Txn, attach the facade-built topology, and republish, so
//     d-choice lookups are lock-free, allocation-free, and can never
//     observe a half-applied change. Per-server load lives in one
//     cache-line-padded atomic counter per slot (LoadsInto is the
//     allocation-free reporting form); key records in 64 hash-sharded
//     open-addressing tables that Locate reads lock-free under a
//     per-table sequence number; Place/Locate/Remove/Rebalance and
//     the invariant checker are all generic over a small Topology
//     interface (resolve a hashed key to the owning server slot).
//   - internal/hashring is the ring facade: servers hash to sorted
//     points in internal/jump form, a key hash resolves to its arc
//     owner in O(1). Its public API is unchanged from before the
//     split.
//   - router.Geo is the torus facade: servers sit at fixed k-D torus
//     coordinates (e.g. datacenter lat/long), each key hashes to d
//     points resolved through internal/torus's grid nearest-site
//     kernels (NearestShared, the concurrent scratch-free entry), so
//     placement respects geography while d-choices level the load.
//     Membership changes build the new torus index incrementally from
//     the prior snapshot (torus.WithSite/WithoutSite splice the
//     cell-CSR index instead of re-sorting) —
//     see examples/geo-router.
//
// # Replication, failover, and live migration
//
// The d hash candidates double as a replica set: SetReplication(r)
// (r <= d, capped at MaxReplicas) makes PlaceReplicated pin each key
// to the r least-loaded of its d candidate servers, recorded in a
// fixed-size per-key struct so the replicated paths stay
// allocation-free. LocateAny is the failover read: it returns the
// first live replica in placement order (draining replicas only as a
// last resort) and ErrNoLiveReplica only when all replicas are gone.
// Repair re-replicates under-target keys after membership loss while
// preserving surviving replicas, and converges (a second pass moves
// nothing). Graceful removal is SetDraining + PlanMigration(limit) —
// a bounded write-log of old-record -> new-record deltas planned
// against one snapshot — drained by ApplyBatch during live traffic.
// Every delta is revalidated under the key's shard lock and skipped
// (never misapplied) if the record or membership changed since
// planning, and records swap atomically under that lock, so a
// concurrent LocateAny sees the old replica set or the new one, never
// a mix.
//
// internal/journal makes that state durable when asked: StartJournal
// attaches a write-ahead log (CRC-32C-framed, LSN-stamped records of
// every mutation, group-commit fsync, snapshot + compaction) behind
// the same nil-checked atomic-pointer seam as metrics, so a
// journal-free router is untouched and zero-alloc. RecoverGeo /
// hashring.Recover rebuild a router from snapshot + replay, truncating
// torn tails and rejecting deeper corruption with a typed error; the
// internal/journal/crashtest lab proves the contract at every WAL
// record boundary, and loadgen's kill@offset failure exercises it
// under live traffic.
//
// internal/loadgen drives either router (Config.Space ring/torus) with
// N goroutines of Zipf/Pareto/uniform-keyed Place/Locate/Remove
// traffic (optionally racing membership churn and a scripted
// FailureScript of crash / graceful-leave / torus-zone-outage events,
// with KeyReplicas > 1 switching reads to LocateAny and auditing for
// lost keys after a final repair) and reports throughput plus sampled
// latency percentiles; run it via `geobalance loadtest [-space torus]
// [-key-replicas r] [-failures script]`. cmd/benchjson records both
// routers' serial and parallel numbers — including the replicated
// place, failover locate, and failure-script loadgen paths — alongside
// the simulation sweep and gates CI on regressions (-compare).
//
// # Observability
//
// internal/metrics is the live-observability registry: dependency-free
// (standard library only), allocation-conscious, and pull-based. Its
// three instrument kinds mirror the serving path they watch — Counter
// is eight cache-line-padded atomic shards picked by a caller-supplied
// hint (the router passes the key hash it already computed, so counter
// shards stripe like key shards), Gauge is one atomic word, and
// Histogram stripes stats.LatencyHist behind per-stripe mutexes keyed
// by a mixed sample value. Registration is idempotent (re-registering
// a name returns the same instrument), and collectors (GaugeFunc,
// GaugeVec) let the registry read live state — the router's per-server
// load — at scrape time instead of on the hot path.
//
// The zero-cost-when-disabled contract: instrumented packages hold
// their metric set in an atomic.Pointer and nil-check it at each hot
// call site, so a router without metrics attached pays one atomic
// pointer load and one predicted branch — nothing else, and no
// allocation either way (AllocsPerRun-guarded in both states; with
// metrics ATTACHED the hot paths are still allocation-free, each
// update being one sharded atomic add, ~7ns on the reference vCPU).
// Attach with Router.Instrument(reg) (or the Geo/Ring pass-throughs),
// which also registers the slot-load collectors.
//
// Scrapes come in the two lingua francas: Registry.WritePrometheus
// emits text exposition format 0.0.4 (histograms as quantile-labeled
// summaries; golden-tested), Registry.WriteExpvar emits one
// expvar-style JSON object, and Registry itself is an http.Handler
// serving both (Prometheus by default, JSON via ?format=json or
// Accept: application/json) — `loadtest -metrics-addr :9090` serves it
// live, `-metrics prom|json` dumps it post-run.
//
// internal/loadgen generates either closed-loop traffic (workers issue
// ops back to back against an op or wall-clock budget) or, with
// Config.Arrivals, open-loop traffic: an ArrivalSchedule (constant
// rate, linear ramp, spike, or piecewise trace — see ParseArrivals for
// the -arrivals syntax) fixes every arrival's timestamp up front,
// workers claim arrival indices from a shared atomic counter and sleep
// until each is due, and the issue-lag histogram records how far
// behind schedule every op ran — the open-loop form measures queueing
// delay honestly where closed-loop load generators hide it
// (coordinated omission). `cmd/geobalance loadtest -watch` renders the
// run live: internal/viz's ANSI terminal heatmap (torus servers binned
// by their actual coordinates, so a zone outage goes dark on screen)
// plus a ticker of failover/repair/migration counters and latency
// quantiles, all read from the same registry.
//
// Measured on the development machine (noisy shared vCPU, Go 1.24,
// n = 2^16, d = 2, m = n, BenchmarkTable1Ring, interleaved runs): the
// seed harness ran one trial in 28.2-29.2 ms (~440 ns/ball, ~1.8 MB
// allocated per trial); the fast path runs the same trial — site
// redraw included — in 2.86-2.98 ms (~44 ns/ball, zero steady-state
// allocations), a ~10x improvement, with the per-ball placement cost
// alone (space reuse factored out) around 34 ns.
//
// See README.md for usage, docs/ARCHITECTURE.md for the package map
// and the serving-layer invariants, ROADMAP.md for direction, and
// CHANGES.md for per-PR history.
package geobalance
