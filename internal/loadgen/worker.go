// The traffic: one worker loop and one op path for every mode.
//
// A worker claims a block of ops from the run's source — the
// closed-loop op budget or deadline, or the open-loop arrival schedule
// — and issues it: it draws the block's op mix (LookupFrac lookups
// over the hot keys, the rest an even place/remove mix over the
// worker's own key pool), then makes one call per op type. With
// Batch > 1 the calls are the routers' bulk LocateBatch/PlaceBatch/
// RemoveBatch; with Batch == 1 a block holds one op and the calls are
// scalar.
//
// In open-loop mode a block claims Batch consecutive arrival slots and
// issues when the LAST of them is due; every slot still records its
// own issue lag (earlier arrivals accrue the intra-batch wait — the
// honest queueing cost of coalescing), and every claimed slot ends as
// exactly one completed op or one shed, so ops + shed == offered holds
// in both modes.
//
// With failover reads armed (key replication or a failure script) the
// read path stays scalar LocateAny in both modes: the bulk lookup
// returns a key's recorded primary without probing liveness, so
// batching it would erase the failed-read signal the failure labs
// measure.
package loadgen

import (
	"errors"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/stats"
)

// opBatch is how many ops a closed-loop claim takes from the shared
// budget at least, bounding both contention on the budget counter and
// overshoot.
const opBatch = 64

// source hands out the run's ops as index ranges claimed from one
// shared counter: up to limit ops, or until the deadline when set. In
// an open-loop run the indices are arrivals of sched.
type source struct {
	next     atomic.Int64
	limit    int64
	per      int64 // ops per claim
	deadline time.Time
	sched    *ArrivalSchedule
}

func (h *harness) newSource() *source {
	cfg := &h.cfg
	src := &source{limit: cfg.Ops, per: int64(max(1, opBatch/cfg.Batch) * cfg.Batch), sched: cfg.Arrivals}
	if cfg.Duration > 0 {
		src.deadline = h.start.Add(cfg.Duration)
	}
	switch {
	case src.sched != nil:
		src.limit, src.per = src.sched.Total(), int64(cfg.Batch)
	case cfg.Duration > 0:
		src.limit = math.MaxInt64
	}
	return src
}

// workerStats is one goroutine's private tally, merged after the run.
type workerStats struct {
	lookups, places, removes, errors int64
	failedReads                      int64
	rejections, retries, recovered   int64
	shed, deadlineMisses, hedges     int64
	lookup, place, remove, lag       stats.LatencyHist
	sojourn                          stats.LatencyHist
}

// worker is one traffic goroutine: its rng stream, its own write-key
// pool, and its private tallies. The rng state lives inside the worker
// rather than in a small allocation of its own, where two workers'
// states, written on every op, would share a cache line.
type worker struct {
	*harness
	workerStats
	r    rng.Rand
	id   int
	hint uint64 // metric shard hint (the worker index)

	own                []string // write-churn key pool; own[tail:head) (mod len) are placed
	head, tail, placed int
	gen                int // shed-key renames (a fresh name draws a fresh candidate set)
	ops, nextSample    int // ops issued; the next op whose block is timed

	// Reusable block scratch, so a steady-state block allocates nothing
	// beyond what the router's own calls do.
	look, keys []string
	out        []router.BatchResult
	ownersBuf  []string
}

func (h *harness) newWorker(id int) *worker {
	w := &worker{
		harness: h, id: id, hint: uint64(id),
		own:       make([]string, 256),
		look:      make([]string, 0, h.cfg.Batch),
		keys:      make([]string, 0, h.cfg.Batch),
		out:       make([]router.BatchResult, h.cfg.Batch),
		ownersBuf: make([]string, 0, router.MaxChoices),
	}
	w.r.SeedStream(h.cfg.Seed, uint64(id))
	for i := range w.own {
		w.own[i] = "w" + strconv.Itoa(id) + ":" + strconv.Itoa(i)
	}
	return w
}

// run is the worker loop: claim a block, issue it in Batch-sized
// blocks, until the source runs dry.
func (w *worker) run(src *source) {
	for n := w.claim(src); n > 0; n = w.claim(src) {
		for ; n > 0; n -= w.cfg.Batch {
			w.issue(min(n, w.cfg.Batch))
		}
	}
}

// claim takes the next range of ops and returns its size, 0 when the
// run is over. An open-loop claim sleeps until its last arrival is due
// and records every claimed arrival's issue lag — for every op, not
// sampled: lag is the open-loop harness's primary signal and costs no
// clock read beyond the one the wait needs.
func (w *worker) claim(src *source) int {
	k0 := src.next.Add(src.per) - src.per
	if k0 >= src.limit {
		return 0
	}
	n := min(src.per, src.limit-k0)
	if src.sched == nil {
		if !src.deadline.IsZero() && !time.Now().Before(src.deadline) {
			return 0
		}
		return int(n)
	}
	due := w.start.Add(src.sched.TimeOf(k0 + n - 1))
	now := time.Now()
	if d := due.Sub(now); d > 0 {
		time.Sleep(d)
		now = time.Now()
	}
	if !src.deadline.IsZero() && now.After(src.deadline) {
		return 0
	}
	for k := k0; k < k0+n; k++ {
		lag := max(0, now.Sub(w.start.Add(src.sched.TimeOf(k))).Nanoseconds())
		w.lag.Add(lag)
		if w.lm != nil {
			w.lm.Lag.Observe(lag)
		}
	}
	return int(n)
}

// issue is the op path: draw a block of n ops, then issue its lookups,
// places and removes, one call per op type. A block is timed when it
// reaches the next sampled op (every SampleEvery-th); latency
// histograms get one per-key mean per op type per timed block.
func (w *worker) issue(n int) {
	// Draw the whole mix before any clock starts: the Zipf rank draw is
	// a rejection-sampling loop whose cost would otherwise dominate the
	// router op being measured.
	look := w.look[:0]
	nPlace, nRemove := 0, 0
	for i := 0; i < n; i++ {
		if w.r.Float64() < w.cfg.LookupFrac {
			look = append(look, w.hot[w.rk.Next(&w.r)])
			continue
		}
		canPlace := w.placed+nPlace < len(w.own)
		canRemove := nRemove < w.placed
		switch {
		case !canPlace && !canRemove:
			// The pool cycled completely within this one block (Batch far
			// above the pool size): fall back to a lookup rather than
			// re-place a key the same block already holds.
			look = append(look, w.hot[w.rk.Next(&w.r)])
		case !canRemove || (canPlace && w.r.Uint64()&1 == 0):
			nPlace++
		default:
			nRemove++
		}
	}
	timed := w.ops >= w.nextSample
	if timed {
		w.nextSample = w.ops + w.cfg.SampleEvery
	}
	w.ops += n
	if len(look) > 0 {
		w.lookupBlock(look, timed)
	}
	if nPlace > 0 {
		w.placeBlock(nPlace, timed)
	}
	if nRemove > 0 {
		w.removeBlock(nRemove, timed)
	}
}

// lookupBlock reads keys and tallies the reads. A failover read that
// finds no live replica is the degradation a failure inflicts on
// purpose, counted apart from harness errors.
func (w *worker) lookupBlock(keys []string, timed bool) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	out := w.out[:len(keys)]
	switch {
	case w.failover:
		for i, key := range keys {
			out[i].Server, out[i].Err = w.target.LocateAny(key)
		}
	case w.cfg.Batch > 1:
		w.target.LocateBatch(keys, out)
	default:
		out[0].Server, out[0].Err = w.target.Locate(keys[0])
	}
	for i := range out {
		switch err := out[i].Err; {
		case err == nil:
			if w.model != nil {
				w.observeRead(keys[i], out[i].Server)
			}
		case errors.Is(err, router.ErrNoLiveReplica):
			w.failedReads++
			if w.lm != nil {
				w.lm.FailedReads.Inc(w.hint)
			}
		default:
			w.countError()
		}
	}
	w.lookups += int64(len(keys))
	if w.lm != nil {
		w.lm.Lookups.Add(w.hint, int64(len(keys)))
	}
	if timed {
		lat := time.Since(t0).Nanoseconds() / int64(len(keys))
		w.lookup.Add(lat)
		if w.lm != nil {
			w.lm.LookupLatency.Observe(lat)
		}
	}
}

// placeBlock places the next nPlace pool keys. Placements rejected with
// ErrOverloaded are retried together with the client retry discipline:
// full-jitter capped exponential backoff (RetryBase doubling up to
// RetryCap, floored at the round's largest retry-after hint), up to
// Retries times and never past OpDeadline. A key that runs out of
// retries is shed: the op is counted as shed, not as a place, and its
// pool slot does not advance but gets a FRESH key name — a key's
// candidate set is fixed by its hash, so retrying the identical key
// against a saturated candidate set would wedge the worker's write
// path for good. Any other error advances the pool, counted as an
// error.
func (w *worker) placeBlock(nPlace int, timed bool) {
	cfg := &w.cfg
	keys := w.keys[:0]
	for i := 0; i < nPlace; i++ {
		keys = append(keys, w.own[(w.head+i)%len(w.own)])
	}
	var t0 time.Time
	if timed || cfg.OpDeadline > 0 {
		t0 = time.Now()
	}
	advanced := 0
	for attempt := 0; ; attempt++ {
		out := w.out[:len(keys)]
		if cfg.Batch > 1 {
			w.target.PlaceBatch(keys, out)
		} else {
			out[0].Server, out[0].Err = w.target.Place(keys[0])
		}
		retry := keys[:0] // compacts keys in place
		var hint time.Duration
		for i := range out {
			err := out[i].Err
			if err != nil && errors.Is(err, router.ErrOverloaded) {
				w.rejections++
				var oe *router.OverloadedError
				if errors.As(err, &oe) {
					hint = max(hint, oe.RetryAfter)
				}
				retry = append(retry, keys[i])
				continue
			}
			// Advance the pool window over the key; order within the
			// advanced window does not matter.
			w.own[(w.head+advanced)%len(w.own)] = keys[i]
			advanced++
			switch {
			case err != nil:
				w.countError()
				continue
			case attempt > 0:
				w.recovered++
				if w.lm != nil {
					w.lm.Recovered.Inc(w.hint)
				}
			}
			if w.model != nil {
				// The accepted write consumes service time on the server
				// that took it — write demand is demand.
				soj := int64(w.model.observe(out[i].Server, &w.r))
				w.sojourn.Add(soj)
				if w.lm != nil {
					w.lm.Sojourn.Observe(soj)
				}
			}
		}
		keys = retry
		if len(keys) == 0 || attempt >= cfg.Retries {
			break
		}
		sleep := backoff(&w.r, attempt+1, cfg.RetryBase, cfg.RetryCap, hint)
		if cfg.OpDeadline > 0 && time.Since(t0)+sleep > cfg.OpDeadline {
			w.deadlineMisses += int64(len(keys))
			if w.lm != nil {
				w.lm.DeadlineMisses.Add(w.hint, int64(len(keys)))
			}
			break
		}
		w.retries += int64(len(keys))
		if w.lm != nil {
			w.lm.Retries.Add(w.hint, int64(len(keys)))
		}
		time.Sleep(sleep)
	}
	// The shed keys' slots sit just past the advanced window.
	for i := range keys {
		w.gen++
		slot := (w.head + advanced + i) % len(w.own)
		w.own[slot] = "w" + strconv.Itoa(w.id) + ":" + strconv.Itoa(slot) + "#" + strconv.Itoa(w.gen)
	}
	if len(keys) > 0 {
		w.shed += int64(len(keys))
		if w.lm != nil {
			w.lm.Shed.Add(w.hint, int64(len(keys)))
		}
	}
	w.head = (w.head + advanced) % len(w.own)
	w.placed += advanced
	if advanced > 0 {
		w.places += int64(advanced)
		if w.lm != nil {
			w.lm.Places.Add(w.hint, int64(advanced))
		}
		if timed {
			w.place.Add(time.Since(t0).Nanoseconds() / int64(advanced))
		}
	}
}

// removeBlock removes the oldest nRemove placed pool keys.
func (w *worker) removeBlock(nRemove int, timed bool) {
	keys := w.keys[:0]
	for i := 0; i < nRemove; i++ {
		keys = append(keys, w.own[(w.tail+i)%len(w.own)])
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	out := w.out[:nRemove]
	if w.cfg.Batch > 1 {
		w.target.RemoveBatch(keys, out)
	} else {
		out[0].Err = w.target.Remove(keys[0])
	}
	if timed {
		w.remove.Add(time.Since(t0).Nanoseconds() / int64(nRemove))
	}
	for i := range out {
		if out[i].Err != nil {
			w.countError()
		}
	}
	w.tail = (w.tail + nRemove) % len(w.own)
	w.placed -= nRemove
	w.removes += int64(nRemove)
	if w.lm != nil {
		w.lm.Removes.Add(w.hint, int64(nRemove))
	}
}

func (w *worker) countError() {
	w.errors++
	if w.lm != nil {
		w.lm.Errors.Inc(w.hint)
	}
}

// observeRead routes one read through the service-time model: observe
// the serving server's virtual queue, hedge to an alternate replica
// when the sojourn crosses HedgeAfter (or the server's breaker is
// already open), keep the faster of the two, and feed the breaker.
func (w *worker) observeRead(key, srv string) {
	lm := w.lm
	now := time.Now()
	var (
		soj    time.Duration
		hedged bool
	)
	if w.br != nil && w.br.open(srv, now) {
		// Breaker open: go straight to an alternate replica, sparing the
		// struggling server the sample entirely. No alternate (single
		// replica, or every owner is srv) means eating the slow read.
		if alt := w.altReplica(key, srv); alt != "" {
			soj, hedged = w.model.observe(alt, &w.r), true
		} else {
			soj = w.model.observe(srv, &w.r)
		}
	} else {
		soj = w.model.observe(srv, &w.r)
		if w.br != nil {
			slow := soj > w.cfg.HedgeAfter
			if slow {
				// Hedge: a second read to an alternate replica, keeping
				// whichever finishes first.
				if alt := w.altReplica(key, srv); alt != "" {
					if s2 := w.model.observe(alt, &w.r); s2 < soj {
						soj = s2
					}
					hedged = true
				}
			}
			if w.br.record(srv, slow, now) && lm != nil {
				lm.BreakerOpens.Inc(w.hint)
			}
		}
	}
	if hedged {
		w.hedges++
		if lm != nil {
			lm.Hedges.Inc(w.hint)
		}
	}
	w.sojourn.Add(int64(soj))
	if lm != nil {
		lm.Sojourn.Observe(int64(soj))
	}
	if w.cfg.OpDeadline > 0 && soj > w.cfg.OpDeadline {
		w.deadlineMisses++
		if lm != nil {
			lm.DeadlineMisses.Inc(w.hint)
		}
	}
}

// altReplica returns one of key's owners other than srv, or "".
func (w *worker) altReplica(key, srv string) string {
	owners, err := w.target.Owners(key, w.ownersBuf[:0])
	if err != nil {
		return ""
	}
	for _, o := range owners {
		if o != srv {
			return o
		}
	}
	return ""
}
