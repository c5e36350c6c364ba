// Package core implements the paper's primary contribution: the
// power-of-d-choices allocation process over a geometric space in which
// bins are selected non-uniformly, in proportion to the measure of the
// nearest-neighbor region owned by each server.
//
// The process (Theorem 1 and Section 3 of the paper): servers are placed
// in a geometric space and each owns the region of space nearest to it.
// Items (balls) arrive sequentially; each draws d locations uniformly at
// random from the space, resolves each location to the server owning it,
// and is stored at the least-loaded of the d candidate servers, breaking
// ties per a configurable rule. With n items on n servers the maximum
// load is log log n / log d + O(1) w.h.p. for both the ring and the
// torus.
//
// The package is deliberately decoupled from the concrete geometries:
// any type satisfying Space plugs in (internal/ring, internal/torus, or
// the built-in UniformSpace reproducing the classical Azar et al.
// setting). Tie-breaking strategies cover the four columns of the
// paper's Table 3: random, larger-region, go-left (Vöcking-style with
// stratified choices), and smaller-region.
//
// # Fast-path architecture
//
// The d-choice rule is written once, in pick (placement.go). Place
// draws one ball's d candidates through the Space interface and picks.
// PlaceBatch is the bulk hot path: one block pipeline for every space
// and configuration draws a block of balls' variates in Place's exact
// order, resolves the block's locations in bulk (internal/jump for a
// space exposing a sorted-site array plus bucket index, like
// ring.Space, matched structurally; the cell-sorted torus.NearestBatch
// kernel for *torus.Space; the uniform space and any other Space draw
// bins directly), then picks and commits ball by ball. Tables 1–2's
// configuration commits through one branch-free pair loop. Scratch
// lives on the Allocator, so steady-state placement performs zero heap
// allocations per ball. PlaceBatch consumes random variates in exactly
// the per-ball order Place does — and is therefore bit-identical to the
// sequential loop — for EVERY configuration and space: the tie-variate
// contract (placement.go) makes the variate schedule static, so the
// pipeline prefetches a block's variates without reordering anything.
// PlaceBatchParallel additionally shards the torus's geometric queries
// across workers while keeping the commit loop sequential, so its trace
// is bit-identical too. The README's Performance table tracks the
// measured cost per ball.
//
// When Config.TrackBalls is set the allocator also maintains a
// load-count histogram (loadCount[l] = number of bins with load l), so
// DeleteRandom updates the maximum incrementally instead of rescanning
// all n bins when the last maximally-loaded bin loses a ball.
package core

import (
	"errors"
	"fmt"
	"math"

	"geobalance/internal/rng"
	"geobalance/internal/torus"
)

// Space is a geometric space partitioned into bins, one per server.
// Implementations: ring.Space (1-D ring arcs), torus.Space (k-D torus
// Voronoi cells), UniformSpace (classical uniform bins).
type Space interface {
	// NumBins returns the number of servers.
	NumBins() int
	// ChooseBin draws a location uniformly at random from the space and
	// returns the bin (server) owning it. Bins are therefore selected
	// with probability proportional to their region's measure.
	ChooseBin(r *rng.Rand) int
	// Weight returns the measure of the bin's region (arc length on the
	// ring, cell area on the torus). Implementations for which the
	// measure is unknown return NaN; weight-based tie-breaking then
	// fails fast at allocator construction.
	Weight(bin int) float64
}

// StratifiedSpace is a Space that can draw the kth of d choices from the
// kth equal-measure stratum of the space, as in the go-left variant
// discussed after Theorem 1 (each ball picks one point uniformly from
// each of the d intervals [k/d, (k+1)/d)).
type StratifiedSpace interface {
	Space
	ChooseBinIn(r *rng.Rand, k, d int) int
}

// bucketSpace is the structural contract of a space whose ChooseBin is
// "draw one uniform float64 and resolve it against sorted sites with a
// jump index" in internal/jump's storage form — ring.Space, or any
// space with the same shape. PlaceBatch matches it by structure (no
// dependency on the concrete package) and resolves a block's locations
// in bulk. Its ChooseBinIn, if used, must be "locate (k+F)/d", the
// unit-interval stratification.
type bucketSpace interface {
	Space
	SiteBits() []uint64
	BucketDeltas() []int16
	Buckets() []int32
}

// TieBreak selects among candidates that share the minimum load.
type TieBreak int

const (
	// TieRandom breaks ties uniformly at random (Table 3 "arc-random",
	// and the rule used for Tables 1 and 2).
	TieRandom TieBreak = iota
	// TieSmaller prefers the candidate whose region has the smallest
	// measure (Table 3 "arc-smaller" — the best-performing rule).
	TieSmaller
	// TieLarger prefers the candidate whose region has the largest
	// measure (Table 3 "arc-larger" — the worst-performing rule).
	TieLarger
	// TieLeft prefers the candidate drawn from the lowest-numbered
	// stratum (Table 3 "arc-left", Vöcking's asymmetric rule). It
	// requires stratified choices and therefore a StratifiedSpace.
	TieLeft
)

// String returns the paper's name for the rule.
func (t TieBreak) String() string {
	switch t {
	case TieRandom:
		return "random"
	case TieSmaller:
		return "smaller"
	case TieLarger:
		return "larger"
	case TieLeft:
		return "left"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(t))
	}
}

// Config parameterizes an Allocator.
type Config struct {
	// D is the number of choices per ball (d >= 1).
	D int
	// Tie is the tie-breaking rule; the zero value is TieRandom.
	Tie TieBreak
	// Stratified draws choice k from stratum k of d instead of from the
	// whole space. Required (and implied) by TieLeft; optional for other
	// rules, allowing the stratified-choices ablation.
	Stratified bool
	// TrackBalls records each ball's bin so balls can be deleted later
	// (DeleteRandom), enabling the infinite insert/delete process that
	// Azar et al. analyze alongside the finite one. Costs one int32 per
	// live ball.
	TrackBalls bool
}

// Allocator runs the sequential geometric d-choice process. It is not
// safe for concurrent use; run one Allocator per goroutine (the
// simulation harness parallelizes across trials, not within one).
type Allocator struct {
	space  Space
	strat  StratifiedSpace // non-nil iff stratified choices are enabled
	cfg    Config
	loads  []int32
	placed int
	max    int32
	atMax  int32     // number of bins whose load equals max (valid when max > 0)
	balls  []int32   // bin of each live ball, when TrackBalls is set
	capInv []float64 // inverse capacities, when SetCapacities was called

	cand      []int32   // candidate block: d bins per ball
	tu        []uint64  // tie-variate block: d-1 per ball (see the tie-variate contract)
	locs      []float64 // location block of the ring and torus draws
	loadCount []int32   // loadCount[l] = bins with load l, when TrackBalls is set
	stale     []int     // PlaceNBatched's batch of picked bins

	nbsc []*torus.BatchScratch // per-worker scratch for the parallel nearest phase
}

// New validates the configuration against the space and returns a fresh
// allocator with all loads zero.
func New(space Space, cfg Config) (*Allocator, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	if space.NumBins() < 1 {
		return nil, errors.New("core: space has no bins")
	}
	if cfg.D < 1 {
		return nil, fmt.Errorf("core: need d >= 1, got %d", cfg.D)
	}
	if cfg.Tie < TieRandom || cfg.Tie > TieLeft {
		return nil, fmt.Errorf("core: unknown tie-break rule %d", int(cfg.Tie))
	}
	if cfg.Tie == TieLeft {
		cfg.Stratified = true
	}
	a := &Allocator{
		space: space,
		cfg:   cfg,
		loads: make([]int32, space.NumBins()),
		cand:  make([]int32, cfg.D),
		tu:    make([]uint64, cfg.D-1),
	}
	if cfg.TrackBalls {
		a.loadCount = []int32{int32(space.NumBins())} // every bin starts at load 0
	}
	if cfg.Stratified {
		ss, ok := space.(StratifiedSpace)
		if !ok {
			return nil, fmt.Errorf("core: %s requires a StratifiedSpace", describeStrat(cfg))
		}
		a.strat = ss
	}
	if cfg.Tie == TieSmaller || cfg.Tie == TieLarger {
		if math.IsNaN(space.Weight(0)) {
			return nil, fmt.Errorf("core: tie-break %q requires bin weights, but the space reports none", cfg.Tie)
		}
	}
	return a, nil
}

func describeStrat(cfg Config) string {
	if cfg.Tie == TieLeft {
		return "tie-break \"left\""
	}
	return "stratified choice generation"
}

// Place inserts one ball and returns the bin it was placed in.
func (a *Allocator) Place(r *rng.Rand) int {
	cand, tu := a.drawOne(r)
	best := a.pick(a.loads, cand, tu)
	a.commit(best, 1)
	return best
}

// commit records one placed item of the given size in bin, maintaining
// the maximum-load tracker and, under TrackBalls (where every item is a
// unit ball), the ball list and load histogram.
func (a *Allocator) commit(bin int, size int32) {
	nl := a.loads[bin] + size
	a.loads[bin] = nl
	switch {
	case nl > a.max:
		a.max = nl
		a.atMax = 1
	case nl == a.max:
		a.atMax++
	}
	a.placed++
	if a.cfg.TrackBalls {
		a.balls = append(a.balls, int32(bin))
		a.histUp(nl)
	}
}

// histUp moves one bin from load nl-1 to load nl in the histogram.
func (a *Allocator) histUp(nl int32) {
	a.loadCount[nl-1]--
	for int(nl) >= len(a.loadCount) {
		a.loadCount = append(a.loadCount, 0)
	}
	a.loadCount[nl]++
}

// DeleteRandom removes one uniformly random live ball, as in the
// infinite insert/delete process of Azar et al., and returns the bin it
// was removed from. It panics unless the allocator was configured with
// TrackBalls and has at least one live ball.
func (a *Allocator) DeleteRandom(r *rng.Rand) int {
	if !a.cfg.TrackBalls {
		panic("core: DeleteRandom requires Config.TrackBalls")
	}
	if len(a.balls) == 0 {
		panic("core: DeleteRandom with no live balls")
	}
	idx := r.Intn(len(a.balls))
	bin := int(a.balls[idx])
	last := len(a.balls) - 1
	a.balls[idx] = a.balls[last]
	a.balls = a.balls[:last]
	old := a.loads[bin]
	a.loads[bin]--
	a.placed--
	a.loadCount[old]--
	a.loadCount[old-1]++
	if old == a.max {
		a.atMax--
		if a.atMax == 0 {
			// The bin we just decremented now sits at max-1, so the
			// histogram gives the new count directly — no O(n) rescan.
			a.max--
			if a.max > 0 {
				a.atMax = a.loadCount[a.max]
			}
		}
	}
	return bin
}

// recoverMax rebuilds the maximum tracker from the loads in one pass,
// for the pair commit, which does not maintain it per ball.
func (a *Allocator) recoverMax() {
	max, atMax := int32(0), int32(0)
	for _, l := range a.loads {
		if l > max {
			max, atMax = l, 1
		} else if l == max && l > 0 {
			atMax++
		}
	}
	a.max, a.atMax = max, atMax
}

// PlaceN inserts m balls sequentially. It delegates to PlaceBatch,
// which is bit-identical to m Place calls at a fraction of the cost
// for every configuration (see the placement.go package comment).
func (a *Allocator) PlaceN(m int, r *rng.Rand) {
	a.PlaceBatch(m, r)
}

// Loads returns the per-bin loads. The returned slice is shared; callers
// must not modify it.
func (a *Allocator) Loads() []int32 { return a.loads }

// MaxLoad returns the current maximum load over all bins.
func (a *Allocator) MaxLoad() int { return int(a.max) }

// Placed returns the number of balls placed so far.
func (a *Allocator) Placed() int { return a.placed }

// Space returns the underlying space.
func (a *Allocator) Space() Space { return a.space }

// Config returns the allocator's configuration.
func (a *Allocator) Config() Config { return a.cfg }

// Reset zeroes all loads so the allocator can run another trial over the
// same space.
func (a *Allocator) Reset() {
	for i := range a.loads {
		a.loads[i] = 0
	}
	a.placed = 0
	a.max = 0
	a.atMax = 0
	a.balls = a.balls[:0]
	if a.cfg.TrackBalls {
		a.loadCount = append(a.loadCount[:0], int32(len(a.loads)))
	}
}

// Live returns the number of live balls (placed minus deleted).
func (a *Allocator) Live() int { return a.placed }

// UniformSpace is the classical setting of Azar et al.: n bins, each
// selected with probability exactly 1/n. It implements StratifiedSpace
// (stratum k of d is the contiguous block of bins [k*n/d, (k+1)*n/d)),
// making Vöcking's go-left scheme available for baseline comparisons.
type UniformSpace struct {
	n int
}

// NewUniform returns a uniform space with n bins; n must be >= 1.
func NewUniform(n int) (*UniformSpace, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: uniform space needs n >= 1, got %d", n)
	}
	return &UniformSpace{n: n}, nil
}

// NumBins returns the number of bins.
func (u *UniformSpace) NumBins() int { return u.n }

// ChooseBin returns a uniformly random bin.
func (u *UniformSpace) ChooseBin(r *rng.Rand) int { return r.Intn(u.n) }

// Weight returns 1/n for every bin.
func (u *UniformSpace) Weight(int) float64 { return 1 / float64(u.n) }

// ChooseBinIn returns a uniform bin from the kth of d contiguous blocks
// [k·n/d, (k+1)·n/d). When d > n some strata are degenerate (the block
// boundaries coincide, hi == lo); such a stratum collapses to the single
// bin at its start, which is always in range: lo = ⌊k·n/d⌋ ≤
// ⌊(d-1)·n/d⌋ ≤ n-1 for every valid k. The degenerate case still draws
// one variate so that choice-sequence reproducibility does not depend on
// which strata are degenerate.
func (u *UniformSpace) ChooseBinIn(r *rng.Rand, k, d int) int {
	if d < 1 || k < 0 || k >= d {
		panic(fmt.Sprintf("core: ChooseBinIn stratum %d of %d", k, d))
	}
	lo := k * u.n / d
	hi := (k + 1) * u.n / d
	if hi == lo {
		hi = lo + 1
	}
	return lo + r.Intn(hi-lo)
}
