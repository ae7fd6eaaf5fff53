// Structure-of-arrays multi-chain round kernels: one CSR walk serves a
// block of up to 64 chains.
//
// The per-chain kernels in chains.go advance one chain per call, so a
// k-chain batch re-walks the same adjacency k times per round and re-loads
// every activity pointer once per chain per edge. The SoA block engine
// stores W chains interleaved [vertex][chain] as byte lanes — chain c's
// value at vertex v is x[v*S+c] in a flat []uint8, where the row stride S
// is W rounded up to whole 8-lane words — so one pass over the CSR
// evaluates marginals, proposals, and edge filters for all W lanes with
// contiguous loads: the neighbor index, the activity table pointer, and the
// β/state cache lines are fetched once per vertex (or edge) and amortized
// over the whole block. A byte holds every spin of a model with q ≤ 256
// (MaxLaneQ); wider models run per-chain. The per-round key schedules are
// hoisted once per block per round through rng.KeysInto, and a row of
// lane variates at one vertex comes from rng.LaneFloat64s, which mixes the
// vertex id once per row.
//
// The default coloring filter runs word-parallel: one 64-bit word holds 8
// lanes, each of the three §4.2 rules is a zero-byte test on two XORed
// words (eqBytes), and accepted proposals are blended into the state
// through a byte mask, with no per-lane branch. Padding rows to whole
// words lets the filter read full words at every width; the dead lanes
// past W ride along and are never scattered.
//
// Determinism is the same contract as every other runtime in this
// repository: lane c of a block seeded {s_0..s_{W-1}} reproduces the
// per-chain Sampler at seed s_c bit-for-bit, at every block width. That
// holds by construction — every variate is PRF(seed_c, tag, id, round),
// keyed by the chain's own seed and a global vertex/edge ID, never by lane
// index or visitation order — and is pinned by TestSoARoundsMatchSequential
// and the engine-level width gates.
package chains

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// MaxBatchWidth is the widest SoA block: lane sets are tracked as uint64
// bitmasks, one bit per chain.
const MaxBatchWidth = 64

// MaxLaneQ is the largest spin count an SoA block holds: lanes are bytes.
const MaxLaneQ = 256

// SoABlock advances up to MaxBatchWidth chains of one model in lockstep
// through shared round kernels. A block is reusable: Reset rewinds it to
// round 0 with new lane seeds (and possibly a different lane count ≤ the
// construction width); Run advances all lanes; Scatter copies the lanes
// out. All working buffers are allocated at construction — steady-state
// rounds allocate nothing (alloc-gated, instrumented and bare).
type SoABlock struct {
	M    *mrf.MRF
	Alg  Algorithm
	Opts Options

	// Obs and Abort follow the Sampler contract: Obs (if non-nil) gets one
	// RoundDone per block round — a block round advances all lanes at
	// once — and Abort is polled between rounds by Run.
	Obs   RoundObserver
	Abort *atomic.Bool

	maxW     int
	coloring bool

	w      int      // active lanes this run (1..maxW)
	stride int      // row stride this run: w rounded up to whole words
	seeds  []uint64 // lane chain-seeds
	round  int

	x    []uint8   // [n*stride] lane state, x[v*stride+c]; lanes ≥ w are padding
	prop []uint8   // [n*stride] lane proposals
	beta []float64 // [n*w] lane Luby priorities
	u    []float64 // one row of lane variates
	marg []float64 // one marginal row, reused lane-sequentially per vertex

	kb, ku, kc []rng.RoundKey // hoisted per-lane key schedules

	reject []uint64 // [n*stride/8] per-word reject flags of the coloring filter
	pass   []uint64 // [m] per-edge lane pass masks
}

// rowStride is the padded row length of a w-lane block: whole 8-lane
// words, so the word-parallel filter never reads past a row.
func rowStride(w int) int { return (w + 7) &^ 7 }

// NewSoABlock returns a block for up to maxW chains of model m. Only the
// kernels with marginal/propose/filter rounds batch: Glauber, LubyGlauber,
// and LocalMetropolis (the scan and chromatic baselines stay per-chain).
// It panics when m has more than MaxLaneQ spins.
func NewSoABlock(m *mrf.MRF, alg Algorithm, opts Options, maxW int) *SoABlock {
	if maxW < 1 || maxW > MaxBatchWidth {
		panic(fmt.Sprintf("chains: SoA block width must be in [1,%d], got %d", MaxBatchWidth, maxW))
	}
	if alg != Glauber && alg != LubyGlauber && alg != LocalMetropolis {
		panic(fmt.Sprintf("chains: %v has no SoA batch kernel", alg))
	}
	if m.Q > MaxLaneQ {
		panic(fmt.Sprintf("chains: SoA lanes hold q <= %d spins, got q = %d", MaxLaneQ, m.Q))
	}
	n := m.G.N()
	cells := n * rowStride(maxW)
	b := &SoABlock{
		M:     m,
		Alg:   alg,
		Opts:  opts,
		maxW:  maxW,
		x:     make([]uint8, cells),
		beta:  make([]float64, n*maxW),
		u:     make([]float64, maxW),
		marg:  make([]float64, m.Q),
		seeds: make([]uint64, maxW),
		kb:    make([]rng.RoundKey, maxW),
		ku:    make([]rng.RoundKey, maxW),
	}
	if alg == LocalMetropolis {
		b.coloring = m.IsColoringModel()
		b.prop = make([]uint8, cells)
		if b.coloring && !opts.DropRule3 {
			// The symmetric three-rule coloring filter fuses into a
			// per-vertex sweep over whole words; only the asymmetric
			// ablation and the general filter need per-edge pass masks.
			b.reject = make([]uint64, cells/8)
		} else {
			b.pass = make([]uint64, m.G.M())
			if !b.coloring {
				b.kc = make([]rng.RoundKey, maxW)
			}
		}
	}
	return b
}

// Width returns the lane count of the current run.
func (b *SoABlock) Width() int { return b.w }

// MaxWidth returns the construction width — the widest run the block's
// buffers can serve. The engine's block pool is grow-only on this.
func (b *SoABlock) MaxWidth() int { return b.maxW }

// Round returns the number of rounds taken since Reset.
func (b *SoABlock) Round() int { return b.round }

// Reset rewinds the block to round 0 with len(seeds) active lanes, every
// lane starting from init. len(seeds) must be in [1, maxW]. Rows are
// packed at the stride of len(seeds) lanes, so a tail block narrower than
// the construction width carries at most 7 dead lanes per row.
func (b *SoABlock) Reset(init []int, seeds []uint64) {
	n := b.M.G.N()
	if len(init) != n {
		panic("chains: initial configuration has wrong length")
	}
	if len(seeds) < 1 || len(seeds) > b.maxW {
		panic(fmt.Sprintf("chains: SoA lane count must be in [1,%d], got %d", b.maxW, len(seeds)))
	}
	w := len(seeds)
	s := rowStride(w)
	b.w, b.stride = w, s
	copy(b.seeds[:w], seeds)
	b.round = 0
	x := b.x
	for v := 0; v < n; v++ {
		xv := uint8(init[v])
		row := x[v*s : v*s+s]
		for c := range row {
			row[c] = xv
		}
	}
}

// Scatter copies lane c into dst[c] for every active lane. Each dst[c]
// must have length n.
func (b *SoABlock) Scatter(dst [][]int) {
	n, w, s := b.M.G.N(), b.w, b.stride
	if len(dst) != w {
		panic(fmt.Sprintf("chains: Scatter got %d destinations for %d lanes", len(dst), w))
	}
	for v := 0; v < n; v++ {
		row := b.x[v*s : v*s+w]
		for c, out := range dst {
			out[v] = int(row[c])
		}
	}
}

// Step advances all lanes by one round, reporting to Obs like
// Sampler.Step (shard 0, flips uncounted).
func (b *SoABlock) Step() {
	if b.Obs != nil {
		t0 := time.Now()
		round := b.round
		b.step()
		b.Obs.RoundDone(0, round, time.Since(t0).Nanoseconds(), 0, -1)
		return
	}
	b.step()
}

// Run advances all lanes by t rounds, polling Abort at round boundaries.
func (b *SoABlock) Run(t int) {
	for i := 0; i < t; i++ {
		if b.Abort != nil && b.Abort.Load() {
			return
		}
		b.Step()
	}
}

func (b *SoABlock) step() {
	switch b.Alg {
	case Glauber:
		b.glauberStep()
	case LubyGlauber:
		b.lubyGlauberRound()
	case LocalMetropolis:
		switch {
		case b.coloring && !b.Opts.DropRule3:
			b.coloringRoundSymmetric()
		case b.coloring:
			b.coloringRoundDropRule3()
		default:
			b.localMetropolisRound()
		}
	}
	b.round++
}

// laneMask returns the full mask over w lanes.
func laneMask(w int) uint64 {
	if w == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// glauberStep is GlauberStep per lane: each lane picks its own vertex
// (the picks differ across lanes — same PRF inputs as the per-chain
// kernel), so only the strided marginal is shared, not the walk.
func (b *SoABlock) glauberStep() {
	m, w, s := b.M, b.w, b.stride
	n := m.G.N()
	round := uint64(b.round)
	for c := 0; c < w; c++ {
		v := int(rng.PRF(b.seeds[c], TagPick, round) % uint64(n))
		u := rng.PRFFloat64(b.seeds[c], TagUpdate, uint64(v), round)
		if spin, ok := m.ResampleLaneU(v, b.x, s, c, b.marg, u); ok {
			b.x[v*s+c] = uint8(spin)
		}
	}
}

// lubyGlauberRound is LubyGlauberRound over all lanes: one β fill, one
// CSR membership walk deciding all lanes per vertex, and lane-sequential
// heat-bath resampling of the winners. Per lane the arithmetic is the
// sequential kernel's verbatim: BetaLocalMax's strict tie-break and
// ResampleU's marginal+draw order.
func (b *SoABlock) lubyGlauberRound() {
	m, w, s := b.M, b.w, b.stride
	g := m.G
	n := g.N()
	round := uint64(b.round)
	rng.KeysInto(b.kb[:w], b.seeds[:w], TagBeta, round)
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, round)
	beta := b.beta
	for v := 0; v < n; v++ {
		rng.LaneFloat64s(beta[v*w:v*w+w], b.kb[:w], uint64(v))
	}
	rowPtr, nbr, _ := g.CSR()
	full := laneMask(w)
	for v := 0; v < n; v++ {
		mask := full
		vrow := beta[v*w : v*w+w]
		for _, u := range nbr[rowPtr[v]:rowPtr[v+1]] {
			urow := beta[int(u)*w : int(u)*w+w]
			rem := mask
			for rem != 0 {
				c := bits.TrailingZeros64(rem)
				rem &= rem - 1
				if urow[c] >= vrow[c] {
					mask &^= 1 << c
				}
			}
			if mask == 0 {
				break
			}
		}
		// Winners form an independent set per lane, so in-place lane
		// updates are exact — no resampled lane value is read by another
		// winner of the same lane this round.
		for mask != 0 {
			c := bits.TrailingZeros64(mask)
			mask &= mask - 1
			if spin, ok := m.ResampleLaneU(v, b.x, s, c, b.marg, b.ku[c].Float64(uint64(v))); ok {
				b.x[v*s+c] = uint8(spin)
			}
		}
	}
}

// Word-parallel byte tests: lo7 holds the low 7 bits of every byte, hi1
// the high bit.
const (
	lo7 = 0x7f7f7f7f7f7f7f7f
	hi1 = 0x8080808080808080
)

// le fixes the lane-to-byte order of a word: lane j of a word is its byte
// j on every platform, and the loads and stores compile to single moves.
var le = binary.LittleEndian

// eqBytes returns a word whose byte i is 0x80 when bytes i of a and b are
// equal and 0 otherwise. It is exact per byte: with t = a^b, each byte of
// (t&lo7)+lo7 sums at most 0x7f+0x7f, so no carry crosses into the next
// byte, and the sum's high bit is set iff the byte's low 7 bits are
// nonzero; or-ing in t adds the byte's own high bit, so the result's high
// bit is clear exactly where t's byte is zero.
func eqBytes(a, b uint64) uint64 {
	t := a ^ b
	return ^((t&lo7 + lo7) | t) & hi1
}

// proposeColors fills every live lane's uniform color proposal,
// ⌊u·q⌋ of the lane's update variate, as coloringPropose draws it.
func (b *SoABlock) proposeColors() {
	w, s := b.w, b.stride
	n := b.M.G.N()
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, uint64(b.round))
	qf := float64(b.M.Q)
	u := b.u[:w]
	for v := 0; v < n; v++ {
		rng.LaneFloat64s(u, b.ku[:w], uint64(v))
		row := b.prop[v*s : v*s+w]
		for c, uc := range u {
			row[c] = uint8(uc * qf)
		}
	}
}

// coloringRoundSymmetric is ColoringLocalMetropolisRound's default
// (all-three-rules) path over all lanes, 8 lanes per word: uniform
// proposals, one CSR walk collecting each word's reject flags (a lane is
// rejected when any neighbor triggers a rule, as in coloringVertexOK),
// then a branch-free blend of the proposals into the state.
func (b *SoABlock) coloringRoundSymmetric() {
	g := b.M.G
	n, s := g.N(), b.stride
	b.proposeColors()
	rowPtr, nbr, _ := g.CSR()
	prop, x, reject := b.prop, b.x, b.reject
	for v := 0; v < n; v++ {
		nv := nbr[rowPtr[v]:rowPtr[v+1]]
		for j := 0; j < s; j += 8 {
			o := v*s + j
			vp, vx := le.Uint64(prop[o:]), le.Uint64(x[o:])
			var rej uint64
			for _, u := range nv {
				ou := int(u)*s + j
				up, ux := le.Uint64(prop[ou:]), le.Uint64(x[ou:])
				rej |= eqBytes(vp, up) | eqBytes(vp, ux) | eqBytes(up, vx)
			}
			reject[o/8] = rej
		}
	}
	// Every state read of the walk is done; blend word by word. keep is
	// 0xff in the rejected lanes' bytes, so they hold their state.
	for i, rej := range reject[:n*s/8] {
		keep := (rej >> 7) * 0xff
		o := 8 * i
		le.PutUint64(x[o:], le.Uint64(x[o:])&keep|le.Uint64(prop[o:])&^keep)
	}
}

// coloringRoundDropRule3 is the E4-ablation coloring round over all
// lanes. Without rule 3 the filter is asymmetric in the edge orientation,
// so it keeps per-edge lane pass masks (coloringEdgeFilter's rule order)
// and applies them through the incidence walk.
func (b *SoABlock) coloringRoundDropRule3() {
	g := b.M.G
	w, s := b.w, b.stride
	b.proposeColors()
	prop, x := b.prop, b.x
	edges := g.Edges()
	for id := range edges {
		e := &edges[id]
		pu := prop[int(e.U)*s : int(e.U)*s+w]
		pv := prop[int(e.V)*s : int(e.V)*s+w]
		xu := x[int(e.U)*s : int(e.U)*s+w]
		var pm uint64
		for c := 0; c < w; c++ {
			if pu[c] != pv[c] && pv[c] != xu[c] {
				pm |= 1 << c
			}
		}
		b.pass[id] = pm
	}
	b.applyPassAccept()
}

// localMetropolisRound is LocalMetropolisRound over all lanes: proposals
// through the precomputed cumulative tables, the three-factor edge filter
// with per-(lane, edge) coins in EdgePassProb's multiplication order, and
// the incidence-walk accept.
func (b *SoABlock) localMetropolisRound() {
	m, w, s := b.M, b.w, b.stride
	g := m.G
	n := g.N()
	round := uint64(b.round)
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, round)
	rng.KeysInto(b.kc[:w], b.seeds[:w], TagCoin, round)
	prop, x, u := b.prop, b.x, b.u[:w]
	for v := 0; v < n; v++ {
		rng.LaneFloat64s(u, b.ku[:w], uint64(v))
		row := prop[v*s : v*s+w]
		for c, uc := range u {
			row[c] = uint8(m.ProposeU(v, uc))
		}
	}
	dropRule3 := b.Opts.DropRule3
	edges := g.Edges()
	for id := range edges {
		e := &edges[id]
		a := m.NormalizedEdge(id)
		pu := prop[int(e.U)*s : int(e.U)*s+w]
		pv := prop[int(e.V)*s : int(e.V)*s+w]
		xu := x[int(e.U)*s : int(e.U)*s+w]
		xv := x[int(e.V)*s : int(e.V)*s+w]
		rng.LaneFloat64s(u, b.kc[:w], uint64(id))
		var pm uint64
		for c := 0; c < w; c++ {
			su, sv := int(pu[c]), int(pv[c])
			p := a.At(su, sv) * a.At(int(xu[c]), sv)
			if !dropRule3 {
				p *= a.At(su, int(xv[c]))
			}
			if u[c] < p {
				pm |= 1 << c
			}
		}
		b.pass[id] = pm
	}
	b.applyPassAccept()
}

// applyPassAccept is applyPassAccept over lane masks: a lane accepts at v
// iff its bit survives every incident edge's pass mask.
func (b *SoABlock) applyPassAccept() {
	g := b.M.G
	n, w, s := g.N(), b.w, b.stride
	rowPtr, _, inc := g.CSR()
	full := laneMask(w)
	prop, x := b.prop, b.x
	for v := 0; v < n; v++ {
		mask := full
		for t, end := rowPtr[v], rowPtr[v+1]; t < end; t++ {
			mask &= b.pass[inc[t]]
			if mask == 0 {
				break
			}
		}
		for mask != 0 {
			c := bits.TrailingZeros64(mask)
			mask &= mask - 1
			x[v*s+c] = prop[v*s+c]
		}
	}
}
