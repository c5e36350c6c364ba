package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"geobalance/internal/geom"
	"geobalance/internal/hashring"
	"geobalance/internal/journal"
	"geobalance/internal/jump"
	"geobalance/internal/metrics"
	"geobalance/internal/rng"
	"geobalance/internal/router"
	"geobalance/internal/torus"
	"geobalance/internal/workload"
)

// choices is d, the hash choices per key, in every router workload.
const choices = 2

// routerSpec is one router workload: the fleet, the preload and the
// closed-loop traffic its callers send.
type routerSpec struct {
	dim      int // torus dimension of router.Geo; 0 selects hashring
	servers  int
	preload  int
	readFrac float64 // share of ops that read
	zipf     float64 // Zipf exponent of the read keys; 0 reads uniformly
	durable  bool    // NoSync journal and metrics registry attached
	churn    int     // preloaded keys each caller owns for its removes
	walLimit int64   // WAL bytes past which the journal is compacted between windows

	// Sample periods, powers of two.
	readEvery, writeEvery int64 // latency samples
	traceEvery            int64 // traced-run ops
	setupReps             int
}

// target is the serving API the router workloads drive; hashring.Ring
// and router.Geo both provide it.
type target interface {
	Place(key string) (string, error)
	Locate(key string) (string, error)
	Remove(key string) error
	PlaceBatch(keys []string, out []router.BatchResult)
	StartJournal(dir string, opts journal.Options) (*journal.Log, error)
	Journal() *journal.Log
	CompactJournal() error
	Instrument(reg *metrics.Registry) *router.Metrics
	SetMetrics(m *router.Metrics)
	CheckInvariants() error
	NumKeys() int
	LoadsInto(m map[string]int64)
}

// routerBench is one run of a router workload.
type routerBench struct {
	spec      *routerSpec
	names     []string
	sites     []geom.Vec // geo only
	keys      []string   // preloaded; keys[:stable] are read and never removed
	stable    int
	dir       string // journal directory
	tg        target
	met       *router.Metrics
	callers   []*caller
	walFolded int64 // WAL bytes compaction has folded into snapshots

	// Traced run only: shadows of the router's internal stages.
	ring   *jump.Index  // the ring points hashring builds
	space  *torus.Space // the sites router.Geo indexes
	shadow *journal.Log // fed the entries the router journals
}

func keyName(prefix byte, a, b uint64) string {
	x := rng.Mix64(a ^ rng.Mix64(b))
	buf := make([]byte, 1, 17)
	buf[0] = prefix
	s := strconv.FormatUint(x, 16)
	for i := len(s); i < 16; i++ {
		buf = append(buf, '0')
	}
	return string(append(buf, s...))
}

// newRouterBench makes every input from the seed: server names and
// coordinates, preloaded keys and each caller's op stream.
func newRouterBench(s *routerSpec, seed uint64, dir string) *routerBench {
	b := &routerBench{spec: s, dir: dir, stable: s.preload - callers*s.churn}
	r := rng.NewStream(seed, 1)
	for i := 0; i < s.servers; i++ {
		b.names = append(b.names, keyName('s', seed, uint64(i)))
		if s.dim > 0 {
			v := make(geom.Vec, s.dim)
			for j := range v {
				v[j] = r.Float64()
			}
			b.sites = append(b.sites, v)
		}
	}
	b.keys = make([]string, s.preload)
	for i := range b.keys {
		b.keys[i] = keyName('k', seed, uint64(i))
	}
	for c := 0; c < callers; c++ {
		b.callers = append(b.callers, newCaller(b, c, seed))
	}
	return b
}

// build is the timed set-up: the fleet, the preload through
// PlaceBatch, and for durable workloads the journal and metrics.
func (b *routerBench) build() (target, error) {
	s := b.spec
	var tg target
	if s.dim == 0 {
		ring, err := hashring.New(b.names, hashring.WithChoices(choices))
		if err != nil {
			return nil, err
		}
		tg = ring
	} else {
		g, err := router.NewGeo(s.dim, choices)
		if err != nil {
			return nil, err
		}
		for i, name := range b.names {
			if err := g.AddServer(name, b.sites[i]); err != nil {
				return nil, err
			}
		}
		tg = g
	}
	out := make([]router.BatchResult, 4096)
	for i := 0; i < len(b.keys); i += len(out) {
		blk := b.keys[i:min(i+len(out), len(b.keys))]
		tg.PlaceBatch(blk, out)
		for j, o := range out[:len(blk)] {
			if o.Err != nil {
				return nil, fmt.Errorf("preload %q: %w", blk[j], o.Err)
			}
		}
	}
	if s.durable {
		if _, err := tg.StartJournal(b.dir, journal.Options{NoSync: true}); err != nil {
			return nil, err
		}
		b.met = tg.Instrument(metrics.NewRegistry())
	}
	return tg, nil
}

func closeJournal(tg target) {
	if tg != nil && tg.Journal() != nil {
		tg.Journal().Close()
	}
}

// walWritten syncs the journal and returns the bytes its WAL has taken
// since it was started, those compaction folded away included.
func (b *routerBench) walWritten(lg *journal.Log) (int64, error) {
	if err := lg.Sync(); err != nil {
		return 0, err
	}
	return b.walFolded + lg.WALSize(), nil
}

// trim runs between measured windows. Once the WAL passes the spec's
// limit it is compacted into a fresh snapshot, so the journal's disk
// use stays bounded however long the run: geo-write appends about
// 30 MiB a second. The capture's garbage is collected before the next
// window.
func (b *routerBench) trim() error {
	lg := b.tg.Journal()
	if lg == nil || lg.WALSize() < b.spec.walLimit {
		return nil
	}
	n, err := b.walWritten(lg)
	if err != nil {
		return err
	}
	if err := b.tg.CompactJournal(); err != nil {
		return fmt.Errorf("compacting the journal: %w", err)
	}
	b.walFolded = n - lg.WALSize()
	runtime.GC()
	return nil
}

// startShadows builds the stage shadows the traced run replays ops on.
func (b *routerBench) startShadows() error {
	if b.spec.dim == 0 {
		bits := make([]uint64, 0, len(b.names)+1)
		for _, name := range b.names {
			bits = append(bits, math.Float64bits(router.UnitFloat(router.Hash('s', 0, name))))
		}
		slices.Sort(bits)
		b.ring = jump.NewIndex(append(bits, jump.Inf64))
	} else {
		var err error
		if b.space, err = torus.FromSites(b.sites, b.spec.dim); err != nil {
			return err
		}
	}
	if b.spec.durable {
		hdr := journal.Header{Kind: "geo", Dim: b.spec.dim, D: choices}
		var err error
		if b.shadow, err = journal.Create(filepath.Join(b.dir, "shadow"), hdr, nil, journal.Options{NoSync: true}); err != nil {
			return err
		}
	}
	return nil
}

// fifo holds the keys a caller owns, oldest first.
type fifo struct {
	buf     []string
	head, n int
}

func (q *fifo) push(k string) {
	q.buf[(q.head+q.n)%len(q.buf)] = k
	q.n++
}

func (q *fifo) pop() string {
	k := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return k
}

// caller is one closed-loop client of a router workload.
type caller struct {
	b          *routerBench
	id         int
	writes     []bool  // op kinds, cycled: true writes
	reads      []int32 // read key indices, cycled
	kpos, rpos int
	fresh      []string // keys to place, cycled; far more than it owns
	fpos       int
	owned      fifo
	placeNext  bool

	ops, failed     int64
	firstErr        error
	places, removes int64
	nreads, nwrites int64
	readLat         samples
	writeLat        samples

	tr   *tracer // nil outside the traced phases
	seq  uint64
	sink uint64
}

const (
	streamLen = 1 << 20
	sampleCap = 1 << 20
	spanCap   = 1 << 18
)

func newCaller(b *routerBench, id int, seed uint64) *caller {
	s := b.spec
	c := &caller{b: b, id: id, placeNext: true}
	r := rng.NewStream(seed, uint64(2+id))
	var z *workload.Zipf
	if s.zipf > 0 {
		var err error
		if z, err = workload.NewZipf(s.zipf, uint64(b.stable)); err != nil {
			panic(err) // the specs are constants
		}
	}
	c.writes = make([]bool, streamLen)
	for i := range c.writes {
		c.writes[i] = r.Float64() >= s.readFrac
	}
	c.reads = make([]int32, streamLen)
	for i := range c.reads {
		if z != nil {
			c.reads[i] = int32(z.Next(r))
		} else {
			c.reads[i] = int32(r.Uint64n(uint64(b.stable)))
		}
	}
	c.fresh = make([]string, 2*s.churn+2)
	for j := range c.fresh {
		c.fresh[j] = keyName('f', seed, uint64(id)<<32|uint64(j))
	}
	c.owned.buf = make([]string, s.churn+1)
	for _, k := range b.keys[b.stable+id*s.churn : b.stable+(id+1)*s.churn] {
		c.owned.push(k)
	}
	c.readLat, c.writeLat = newSamples(sampleCap), newSamples(sampleCap)
	return c
}

func (c *caller) tally() (int64, int64) { return c.ops, c.failed }

func (c *caller) fail(err error) {
	if c.failed++; c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *caller) run(deadline int64) {
	for i := 0; ; i++ {
		if i&15 == 0 && now() >= deadline {
			return
		}
		write := c.writes[c.kpos]
		if c.kpos++; c.kpos == len(c.writes) {
			c.kpos = 0
		}
		if write {
			c.write()
		} else {
			c.read()
		}
	}
}

func (c *caller) nextRead() string {
	k := c.b.keys[c.reads[c.rpos]]
	if c.rpos++; c.rpos == len(c.reads) {
		c.rpos = 0
	}
	return k
}

func (c *caller) nextFresh() string {
	k := c.fresh[c.fpos]
	if c.fpos++; c.fpos == len(c.fresh) {
		c.fpos = 0
	}
	return k
}

// sampled reports whether the n-th op of a kind is sampled
// at the given period, a power of two. Ops are sampled in pairs because
// writes alternate place and remove: a pair holds one of each.
func sampled(n, every int64) bool { return (n>>1)&(every-1) == 0 }

// traced opens the root span of the next op when the traced phase
// samples it; -1 otherwise.
func (c *caller) traced(n int64) int32 {
	if c.tr == nil || !sampled(n, c.b.spec.traceEvery) {
		return -1
	}
	c.seq++
	return c.tr.begin(uint64(c.id)<<48 | c.seq)
}

func (c *caller) read() {
	c.ops++
	c.nreads++
	key := c.nextRead()
	root := c.traced(c.nreads)
	timed := root >= 0 || sampled(c.nreads, c.b.spec.readEvery)
	var t0 int64
	if timed {
		t0 = now()
	}
	_, err := c.b.tg.Locate(key)
	if root >= 0 {
		c.tr.rec(spLocate, root, 1, t0)
		c.tr.end(root)
	} else if timed {
		c.readLat.add(now() - t0)
	}
	if err != nil {
		c.fail(err)
	}
}

func (c *caller) write() {
	c.ops++
	c.nwrites++
	place := c.placeNext || c.owned.n == 0
	c.placeNext = !place
	var key string
	if place {
		key = c.nextFresh()
	} else {
		key = c.owned.pop()
	}
	root := c.traced(c.nwrites)
	if root >= 0 {
		c.replay(root, key, place)
	}
	timed := root >= 0 || sampled(c.nwrites, c.b.spec.writeEvery)
	var t0 int64
	if timed {
		t0 = now()
	}
	var err error
	if place {
		_, err = c.b.tg.Place(key)
	} else {
		err = c.b.tg.Remove(key)
	}
	if root >= 0 {
		name := spRemove
		if place {
			name = spPlace
		}
		c.tr.rec(name, root, 1, t0)
		c.tr.end(root)
	} else if timed {
		c.writeLat.add(now() - t0)
	}
	switch {
	case err != nil:
		c.fail(err)
	case place:
		c.owned.push(key)
		c.places++
	default:
		c.removes++
	}
}

// replay times the pure stages of a scalar write on its key just
// before the router runs them: router.Hash per candidate, the
// candidate's resolve on the shadow jump index or torus, and the
// journal append on the shadow log.
func (c *caller) replay(root int32, key string, place bool) {
	b := c.b
	hashes := 1
	if place {
		hashes = choices
	}
	var slot int32
	for j := 0; j < hashes; j++ {
		var h uint64
		c.stage(spHash, root, 1, func() { h = router.Hash('k', j, key) })
		c.sink += h
		switch {
		case !place:
		case b.ring != nil:
			u := router.UnitFloat(h)
			c.stage(spJump, root, 1, func() { slot = int32(b.ring.Locate(u)) })
		default:
			var pb [router.MaxGeoDim]float64
			p := decode(h, pb[:b.spec.dim])
			c.stage(spNearest, root, 1, func() {
				s, _ := b.space.NearestShared(p)
				slot = int32(s)
			})
		}
	}
	if b.shadow == nil {
		return
	}
	e := journal.Entry{Op: journal.OpRemoveKey, Name: key}
	if place {
		e = journal.Entry{Op: journal.OpPlace, Name: key, Rec: journal.Rec{N: 1, Slots: [journal.MaxReplicas]int32{slot}}}
	}
	c.stage(spAppend, root, 1, func() {
		if err := b.shadow.Append(e); err != nil {
			c.fail(err)
		}
	})
}

// stage times fn into a span after one untimed call. Only sampled ops
// touch the shadows, so a first call would time cache misses that the
// router's own structures, used by every op, do not take.
func (c *caller) stage(name spanName, root int32, n int, fn func()) {
	fn()
	t0 := now()
	fn()
	c.tr.rec(name, root, n, t0)
}

// decode maps a key hash to its torus point exactly as router.Geo does:
// one SplitMix64 draw per coordinate.
func decode(h uint64, p []float64) []float64 {
	state := h
	for j := range p {
		p[j] = router.UnitFloat(rng.SplitMix64(&state))
	}
	return p
}

// check verifies the router after a run: no call failed, its
// invariants hold, every key it should hold still locates, the key
// count matches the net placements and the server loads add up to it.
func (b *routerBench) check() error {
	tg := b.tg
	for _, c := range b.callers {
		if c.failed > 0 {
			return fmt.Errorf("caller %d: %d calls failed, the first with: %w", c.id, c.failed, c.firstErr)
		}
	}
	if err := tg.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	want, held := len(b.keys), b.stable
	for _, k := range b.keys[:b.stable] {
		if _, err := tg.Locate(k); err != nil {
			return fmt.Errorf("preloaded key lost: %w", err)
		}
	}
	for _, c := range b.callers {
		want += int(c.places - c.removes)
		held += c.owned.n
		for i := 0; i < c.owned.n; i++ {
			if _, err := tg.Locate(c.owned.buf[(c.owned.head+i)%len(c.owned.buf)]); err != nil {
				return fmt.Errorf("caller %d key lost: %w", c.id, err)
			}
		}
	}
	if got := tg.NumKeys(); got != want || held != want {
		return fmt.Errorf("NumKeys %d, keys held %d, want preload %d + net placements = %d", got, held, len(b.keys), want)
	}
	loads := make(map[string]int64)
	tg.LoadsInto(loads)
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != int64(want) {
		return fmt.Errorf("server loads sum to %d, want %d keys", sum, want)
	}
	return nil
}

// maxLoadRatio is the largest server load over the mean load.
func (b *routerBench) maxLoadRatio() float64 {
	loads := make(map[string]int64)
	b.tg.LoadsInto(loads)
	var sum, top int64
	for _, l := range loads {
		sum += l
		top = max(top, l)
	}
	return float64(top) * float64(len(loads)) / float64(sum)
}

func (b *routerBench) workers(n int) []worker {
	ws := make([]worker, n)
	for i := range ws {
		ws[i] = b.callers[i]
	}
	return ws
}

func (b *routerBench) mutations() int64 {
	var m int64
	for _, c := range b.callers {
		m += c.places + c.removes
	}
	return m
}

// runRouter builds the workload, runs it, checks it and fills in its
// metrics.
func runRouter(s *routerSpec, seed uint64, d time.Duration, traced bool, dir string, out *report) error {
	b := newRouterBench(s, seed, dir)
	tg, st, err := timeSetup(s.setupReps, b.build, closeJournal)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.tg = tg
	defer closeJournal(tg)
	out.setup = st
	if !traced {
		var rs, ws []*samples
		for _, c := range b.callers {
			rs, ws = append(rs, &c.readLat), append(ws, &c.writeLat)
		}
		ps, err := measure(b.workers(callers), d, windows, b.trim)
		if err != nil {
			return err
		}
		out.windows = ps
		out.read, out.write = quantiles(rs), quantiles(ws)
		out.balance = b.maxLoadRatio()
		return b.check()
	}
	if err := b.startShadows(); err != nil {
		return err
	}
	if b.shadow != nil {
		defer b.shadow.Close()
	}
	lg := tg.Journal()
	var wal0 int64
	mut0 := b.mutations()
	if lg != nil {
		if wal0, err = b.walWritten(lg); err != nil {
			return err
		}
	}
	all := b.workers(callers)
	// Untraced, as the measured run: the base of the tracing overhead,
	// the runtime and journal figures and the parallel speed-up.
	base, err := measure1(all, scale(d, 0.3), b.trim)
	if err != nil {
		return err
	}
	if lg != nil {
		wal1, err := b.walWritten(lg)
		if err != nil {
			return err
		}
		if m := b.mutations() - mut0; m > 0 {
			out.set("journal.bytes_per_mutation", float64(wal1-wal0)/float64(m))
		}
	}
	solo, err := measure1(b.workers(1), scale(d, 0.2), b.trim)
	if err != nil {
		return err
	}
	tracedShare := 0.5
	if s.durable {
		tracedShare = 0.3
	}
	var tracers []*tracer
	for _, c := range b.callers {
		c.tr = newTracer(spanCap)
		tracers = append(tracers, c.tr)
	}
	tp, err := measure1(all, scale(d, tracedShare), b.trim)
	if err != nil {
		return err
	}
	if s.durable {
		// Traced again with the metrics registry detached (span phase
		// 1), for the cost of the metrics hook on router.Place.
		tg.SetMetrics(nil)
		for _, t := range tracers {
			t.phase = 1
		}
		if _, err := measure1(all, scale(d, 0.2), b.trim); err != nil {
			return err
		}
		tg.SetMetrics(b.met)
	}
	for _, c := range b.callers {
		c.tr = nil
	}
	out.windows = []phase{base, solo, tp}
	ss := spanStats{tracers: tracers, clock: clockCost()}
	out.spans = ss
	out.runtime(base, tp)
	out.set("router.parallel_speedup", base.wallRate()/solo.wallRate())
	locate, place := ss.perCall(spLocate, 0), ss.perCall(spPlace, 0)
	hash, resolve := ss.perCall(spHash, 0), ss.perCall(spJump, 0)+ss.perCall(spNearest, 0)
	out.set("router.locate_ns", locate)
	out.set("router.place_ns", place)
	out.set("router.remove_ns", ss.perCall(spRemove, 0))
	out.set("router.hash_ns", hash)
	if place > 0 {
		out.set("router.place_residual_ns", place-choices*(hash+resolve))
	}
	out.set("jump.locate_ns", ss.perCall(spJump, 0))
	out.set("torus.nearest_ns", ss.perCall(spNearest, 0))
	out.set("journal.append_ns", ss.perCall(spAppend, 0))
	if s.durable {
		out.set("metrics.hook_ns", place-ss.perCall(spPlace, 1))
	}
	return b.check()
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
