// Round kernels for the hypergraph chains over CSPs, in the style of the
// MRF kernels in internal/chains: randomness streams through partial round
// keys (rng.Key) instead of full per-variate PRF calls, proposals draw from
// precomputed cumulative activity tables (CategoricalCumU), constraint
// evaluation is compiled-table index arithmetic, and every working buffer
// lives in a reusable Scratch — the steady-state rounds allocate nothing.
//
// Each kernel also has a vertex-parallel form: the round's phases
// (β-fill / resample for LubyGlauber; propose / constraint-filter / accept
// for LocalMetropolis) fan over contiguous index ranges with a barrier
// between phases. Bit-identity with the sequential kernels holds at every
// worker count because all randomness is PRF-keyed by global vertex or
// constraint IDs (never visitation order), each phase reads only state
// frozen by the previous barrier, and phase writes are disjoint per index.
// The one in-place phase — LubyGlauber's resample — writes only members of
// the Luby strongly independent set, no two of which share a constraint, so
// no resampled vertex's marginal reads another resampled vertex.
package csp

import (
	"sync"
	"sync/atomic"
	"time"

	"locsample/internal/rng"
)

// PRF key tags for the deterministic round functions (distinct from the
// chains package tags so MRF and CSP streams never collide).
const (
	TagBeta   = 0x3001
	TagUpdate = 0x3002
	TagCoin   = 0x3003
)

// Scratch holds the per-round working buffers shared by the round kernels.
// One Scratch serves one chain at a time; pool them to serve concurrent
// draws.
type Scratch struct {
	beta []float64
	marg []float64
	prop []int
	pass []bool
	// ms is the marginal/fallback scratch (hoisted table indexes plus the
	// closure gather buffer).
	ms margScratch
	// margs[w]/mss[w] are worker w's private buffers for the
	// vertex-parallel phases.
	margs [][]float64
	mss   []margScratch
}

// NewScratch returns buffers sized for CSP c. The LocalMetropolis-only
// buffers (proposals, per-constraint pass bits) are allocated on first use,
// so the LubyGlauber serving path never carries them.
func NewScratch(c *CSP) *Scratch {
	return &Scratch{
		beta: make([]float64, c.N),
		marg: make([]float64, c.Q),
		ms:   newMargScratch(c),
	}
}

// ensureMetropolis sizes the LocalMetropolis buffers.
func (sc *Scratch) ensureMetropolis(c *CSP) {
	if sc.prop == nil {
		sc.prop = make([]int, c.N)
		sc.pass = make([]bool, len(c.Cons))
	}
}

// EnsureParallel sizes the per-worker buffers for the vertex-parallel
// kernels.
func (sc *Scratch) EnsureParallel(c *CSP, workers int) {
	for len(sc.margs) < workers {
		sc.margs = append(sc.margs, make([]float64, c.Q))
		sc.mss = append(sc.mss, newMargScratch(c))
	}
}

// betaLocalMax is the Luby-step membership test over the hypergraph
// neighborhood: beta[v] must strictly exceed beta[u] for every u in nbr.
// It must stay expression-for-expression identical to chains.BetaLocalMax
// (which the sharded CSP runtime uses) — csp cannot import chains without a
// test-only cycle through internal/exact, so the agreement is enforced by
// the golden-trajectory and sharded bit-identity gates instead.
func betaLocalMax(beta []float64, v int, nbr []int32) bool {
	bv := beta[v]
	for _, u := range nbr {
		if beta[u] >= bv {
			return false
		}
	}
	return true
}

// LubyGlauberRoundPRF advances x by one hypergraph LubyGlauber round with
// randomness derived from (seed, round) — the replayable form used by the
// distributed protocol in internal/dist and by every runtime above this
// package. Winners are strict local maxima of β over the hypergraph
// neighborhood; because winners are strongly independent (no two share a
// constraint), in-place resampling is exact.
func LubyGlauberRoundPRF(c *CSP, x []int, seed uint64, round int, sc *Scratch) {
	n := c.N
	beta := sc.beta[:n]
	rng.Key(seed, TagBeta, uint64(round)).FillFloat64s(beta, 0)
	ku := rng.Key(seed, TagUpdate, uint64(round))
	for v := 0; v < n; v++ {
		if !betaLocalMax(beta, v, c.nbrIdx[c.nbrOff[v]:c.nbrOff[v+1]]) {
			continue
		}
		if c.marginalInto(v, x, sc.marg, &sc.ms) {
			x[v] = rng.CategoricalU(sc.marg, ku.Float64(uint64(v)))
		}
	}
}

// LocalMetropolisRoundPRF advances x by one CSP LocalMetropolis round with
// PRF randomness: proposals keyed by (TagUpdate, v, round), constraint coins
// by (TagCoin, constraint, round).
func LocalMetropolisRoundPRF(c *CSP, x []int, seed uint64, round int, sc *Scratch) {
	n := c.N
	sc.ensureMetropolis(c)
	ku := rng.Key(seed, TagUpdate, uint64(round))
	for v := 0; v < n; v++ {
		d := c.propOf[v]
		sc.prop[v] = rng.CategoricalCumU(c.propDist[d], c.propCum[d], ku.Float64(uint64(v)))
	}
	kc := rng.Key(seed, TagCoin, uint64(round))
	constraintFilter(c, x, sc.prop, sc.pass, kc, sc.ms.eval, 0, len(c.Cons))
	applyPassAccept(c, x, sc.prop, sc.pass, 0, n)
}

// constraintFilter runs the LocalMetropolis checks for constraint IDs
// [lo, hi): pass[ci] = coin_ci < CheckProb, with the shared coin streamed
// through the round's TagCoin partial key. The sequential kernel passes the
// full range; the vertex-parallel mode slices it.
func constraintFilter(c *CSP, x, prop []int, pass []bool, kc rng.RoundKey, eval []int, lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		p := c.CheckProbOn(ci, x, prop, c.scope(int32(ci)), eval)
		pass[ci] = kc.Float64(uint64(ci)) < p
	}
}

// applyPassAccept applies the LocalMetropolis acceptance rule over vertices
// [lo, hi): v adopts its proposal iff every constraint containing it passed.
func applyPassAccept(c *CSP, x, prop []int, pass []bool, lo, hi int) {
	for v := lo; v < hi; v++ {
		ok := true
		for t, end := c.vconsOff[v], c.vconsOff[v+1]; t < end; t++ {
			if !pass[c.vconsIdx[t]] {
				ok = false
				break
			}
		}
		if ok {
			x[v] = prop[v]
		}
	}
}

// parallelFor runs fn(w, lo, hi) over a balanced partition of [0, n) into
// contiguous blocks, one goroutine per block, and waits for all of them —
// the phase barrier of the parallel round kernels.
func parallelFor(n, workers int, fn func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// LubyGlauberRoundParallel is LubyGlauberRoundPRF with both phases fanned
// over workers: β-fill (disjoint writes to sc.beta), then membership +
// resample with per-worker marginal scratch. The in-place x writes are
// race-free because the Luby step is strongly independent (see the package
// comment).
func LubyGlauberRoundParallel(c *CSP, x []int, seed uint64, round int, sc *Scratch, workers int) {
	n := c.N
	sc.EnsureParallel(c, workers)
	beta := sc.beta[:n]
	kb := rng.Key(seed, TagBeta, uint64(round))
	parallelFor(n, workers, func(_, lo, hi int) {
		kb.FillFloat64s(beta[lo:hi], uint64(lo))
	})
	ku := rng.Key(seed, TagUpdate, uint64(round))
	parallelFor(n, workers, func(w, lo, hi int) {
		marg, ms := sc.margs[w], &sc.mss[w]
		for v := lo; v < hi; v++ {
			if !betaLocalMax(beta, v, c.nbrIdx[c.nbrOff[v]:c.nbrOff[v+1]]) {
				continue
			}
			if c.marginalInto(v, x, marg, ms) {
				x[v] = rng.CategoricalU(marg, ku.Float64(uint64(v)))
			}
		}
	})
}

// LocalMetropolisRoundParallel is LocalMetropolisRoundPRF with its three
// phases fanned over workers: propose over vertex ranges, constraint-filter
// over constraint-ID ranges, accept over vertex ranges.
func LocalMetropolisRoundParallel(c *CSP, x []int, seed uint64, round int, sc *Scratch, workers int) {
	n := c.N
	sc.ensureMetropolis(c)
	sc.EnsureParallel(c, workers)
	ku := rng.Key(seed, TagUpdate, uint64(round))
	parallelFor(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			d := c.propOf[v]
			sc.prop[v] = rng.CategoricalCumU(c.propDist[d], c.propCum[d], ku.Float64(uint64(v)))
		}
	})
	kc := rng.Key(seed, TagCoin, uint64(round))
	parallelFor(len(c.Cons), workers, func(w, lo, hi int) {
		constraintFilter(c, x, sc.prop, sc.pass, kc, sc.mss[w].eval, lo, hi)
	})
	parallelFor(n, workers, func(_, lo, hi int) {
		applyPassAccept(c, x, sc.prop, sc.pass, lo, hi)
	})
}

// Chain is one reusable PRF-driven hypergraph LubyGlauber chain — the CSP
// counterpart of chains.Sampler. Reset rewinds it to a fresh initial
// configuration and seed without reallocating state or scratch, so a
// pooled Chain draws any number of chains with zero steady-state
// allocations. With parallel > 1 each round's phases fan over that many
// goroutines (LubyGlauberRoundParallel, bit-identical to the sequential
// kernel).
type Chain struct {
	C *CSP
	X []int

	// Obs and Abort follow the chains.Sampler contract: Obs (if non-nil)
	// gets one RoundDone per Step (shard 0, flips uncounted), and Abort is
	// polled between steps by Run — a chain stopped that way is mid-run
	// and must be Reset before reuse. Obs has chains.RoundObserver's
	// method set, spelled out because csp cannot import chains (see
	// betaLocalMax).
	Obs interface {
		RoundDone(shard, round int, computeNS, barrierNS int64, flips int)
	}
	Abort *atomic.Bool

	parallel int
	seed     uint64
	round    int
	sc       *Scratch
}

// NewChain returns a chain over c starting from init (copied) at seed.
func NewChain(c *CSP, init []int, seed uint64, parallel int) *Chain {
	ch := &Chain{C: c, X: make([]int, c.N), parallel: parallel, sc: NewScratch(c)}
	ch.Reset(init, seed)
	return ch
}

// Reset rewinds the chain to round 0 with a new initial configuration
// (copied) and seed.
func (ch *Chain) Reset(init []int, seed uint64) {
	if len(init) != len(ch.X) {
		panic("csp: initial configuration has wrong length")
	}
	copy(ch.X, init)
	ch.seed = seed
	ch.round = 0
}

// Step advances the chain by one round, reporting it to Obs.
func (ch *Chain) Step() {
	if ch.Obs != nil {
		t0 := time.Now()
		round := ch.round
		ch.step()
		ch.Obs.RoundDone(0, round, time.Since(t0).Nanoseconds(), 0, -1)
		return
	}
	ch.step()
}

func (ch *Chain) step() {
	if ch.parallel > 1 {
		LubyGlauberRoundParallel(ch.C, ch.X, ch.seed, ch.round, ch.sc, ch.parallel)
	} else {
		LubyGlauberRoundPRF(ch.C, ch.X, ch.seed, ch.round, ch.sc)
	}
	ch.round++
}

// Run advances the chain by t rounds, polling Abort between rounds.
func (ch *Chain) Run(t int) {
	for i := 0; i < t; i++ {
		if ch.Abort != nil && ch.Abort.Load() {
			return
		}
		ch.Step()
	}
}

// --- Source-driven chains (sequential baselines) -----------------------

// Sampler runs the hypergraph chains on a CSP from a sequential random
// stream. Create one with NewSampler; it owns its configuration and scratch
// space.
type Sampler struct {
	C *CSP
	X []int
	r *rng.Source

	beta  []float64
	marg  []float64
	prop  []int
	pass  []bool
	coins []float64
	ms    margScratch
}

// NewSampler returns a Sampler with the given initial configuration (copied)
// and seed.
func NewSampler(c *CSP, init []int, seed uint64) *Sampler {
	if len(init) != c.N {
		panic("csp: initial configuration has wrong length")
	}
	s := &Sampler{
		C:     c,
		X:     append([]int(nil), init...),
		r:     rng.New(seed),
		beta:  make([]float64, c.N),
		marg:  make([]float64, c.Q),
		prop:  make([]int, c.N),
		pass:  make([]bool, len(c.Cons)),
		coins: make([]float64, len(c.Cons)),
		ms:    newMargScratch(c),
	}
	return s
}

// GlauberStep performs one single-site heat-bath update at a uniformly
// random vertex (the sequential baseline).
func (s *Sampler) GlauberStep() {
	v := s.r.Intn(s.C.N)
	if s.C.marginalInto(v, s.X, s.marg, &s.ms) {
		s.X[v] = s.r.Categorical(s.marg)
	}
}

// LubyGlauberStep performs one round of the hypergraph LubyGlauber chain:
// every vertex draws β_v ∈ [0,1]; vertices that are strict local maxima over
// their hypergraph neighborhood Γ(v) form a strongly independent set and
// resample from their conditional marginals simultaneously.
func (s *Sampler) LubyGlauberStep() {
	c := s.C
	for v := 0; v < c.N; v++ {
		s.beta[v] = s.r.Float64()
	}
	// Strongly independent vertices never share a constraint, so no updated
	// vertex reads another updated vertex: in-place resampling is exact.
	for v := 0; v < c.N; v++ {
		if !betaLocalMax(s.beta, v, c.Neighborhood(v)) {
			continue
		}
		if c.marginalInto(v, s.X, s.marg, &s.ms) {
			s.X[v] = s.r.Categorical(s.marg)
		}
	}
}

// LocalMetropolisStep performs one round of the CSP LocalMetropolis chain:
// all vertices propose independently from their normalized activities, each
// constraint passes its check with probability CheckProb, and a vertex
// accepts its proposal iff all constraints containing it pass.
func (s *Sampler) LocalMetropolisStep() {
	c := s.C
	for v := 0; v < c.N; v++ {
		c.ProposalDistInto(v, s.marg)
		s.prop[v] = s.r.Categorical(s.marg)
	}
	for ci := range c.Cons {
		s.coins[ci] = s.r.Float64()
		s.pass[ci] = s.coins[ci] < c.CheckProbOn(ci, s.X, s.prop, c.scope(int32(ci)), s.ms.eval)
	}
	applyPassAccept(c, s.X, s.prop, s.pass, 0, c.N)
}
