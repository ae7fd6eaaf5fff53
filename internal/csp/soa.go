// Structure-of-arrays multi-chain round engine for the hypergraph
// LubyGlauber kernel: the CSP analogue of chains.SoABlock (csp cannot
// import chains — see betaLocalMax — so the block is mirrored here with
// the hypergraph walk substituted for the CSR walk).
//
// Chain state is stored [variable][chain] as byte lanes — lane c's value
// at variable v is x[v*W+c] in a flat []uint8, which holds every spin of a
// CSP with q ≤ 256 (MaxLaneQ; wider CSPs run per-chain) — so one pass over
// the constraint incidence evaluates every lane's Luby membership and
// compiled-table marginal with contiguous loads. The β row of a variable
// comes from rng.LaneFloat64s. The expensive per-marginal work,
// hoisting each incident constraint's mixed-radix base index, is where
// batching pays most here: the scope walk that computes it touches the
// same scopeV/conTab rows for every chain, and the SoA block re-walks
// them with the indices hot in cache W times back-to-back instead of
// once per chain per full-batch pass.
//
// Lane c reproduces LubyGlauberRoundPRF at seed seeds[c] bit-for-bit at
// every width: every variate is PRF(seed_c, tag, v, round), and the lane
// marginal (marginalLaneInto) mirrors marginalInto's hoisting,
// ascending-constraint multiplication order, and zero-short-circuit
// exactly, reading lane-strided state instead of a flat configuration.
package csp

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"locsample/internal/rng"
)

// MaxBatchWidth is the widest SoA block; lane sets are uint64 bitmasks.
const MaxBatchWidth = 64

// MaxLaneQ is the largest spin count an SoA block holds: lanes are bytes.
const MaxLaneQ = 256

// SoABlock advances up to MaxBatchWidth LubyGlauber chains of one CSP in
// lockstep. All buffers are allocated at construction; steady-state
// rounds allocate nothing (alloc-gated).
type SoABlock struct {
	C *CSP

	// Obs and Abort follow the Chain contract: Obs (if non-nil) gets one
	// RoundDone per block round — a block round advances all lanes at
	// once — and Abort is polled between rounds by Run.
	Obs interface {
		RoundDone(shard, round int, computeNS, barrierNS int64, flips int)
	}
	Abort *atomic.Bool

	maxW  int
	w     int
	seeds []uint64
	round int

	x    []uint8   // [n*w] lane state, x[v*w+c]
	beta []float64 // [n*w] lane Luby priorities
	marg []float64 // one marginal row, reused lane-sequentially
	kb   []rng.RoundKey
	ku   []rng.RoundKey
	ms   margScratch
}

// NewSoABlock returns a block for up to maxW chains of c. It panics when
// c has more than MaxLaneQ spins.
func NewSoABlock(c *CSP, maxW int) *SoABlock {
	if maxW < 1 || maxW > MaxBatchWidth {
		panic(fmt.Sprintf("csp: SoA block width must be in [1,%d], got %d", MaxBatchWidth, maxW))
	}
	if c.Q > MaxLaneQ {
		panic(fmt.Sprintf("csp: SoA lanes hold q <= %d spins, got q = %d", MaxLaneQ, c.Q))
	}
	return &SoABlock{
		C:     c,
		maxW:  maxW,
		seeds: make([]uint64, maxW),
		x:     make([]uint8, c.N*maxW),
		beta:  make([]float64, c.N*maxW),
		marg:  make([]float64, c.Q),
		kb:    make([]rng.RoundKey, maxW),
		ku:    make([]rng.RoundKey, maxW),
		ms:    newMargScratch(c),
	}
}

// Width returns the lane count of the current run.
func (b *SoABlock) Width() int { return b.w }

// MaxWidth returns the construction width — the widest run the block's
// buffers can serve. The engine's block pool is grow-only on this.
func (b *SoABlock) MaxWidth() int { return b.maxW }

// Round returns the number of rounds taken since Reset.
func (b *SoABlock) Round() int { return b.round }

// Reset rewinds the block to round 0 with len(seeds) active lanes, every
// lane starting from init. Lanes are packed at stride len(seeds) so tail
// blocks narrower than the construction width stay dense.
func (b *SoABlock) Reset(init []int, seeds []uint64) {
	c := b.C
	if len(init) != c.N {
		panic("csp: initial configuration has wrong length")
	}
	if len(seeds) < 1 || len(seeds) > b.maxW {
		panic(fmt.Sprintf("csp: SoA lane count must be in [1,%d], got %d", b.maxW, len(seeds)))
	}
	w := len(seeds)
	b.w = w
	copy(b.seeds[:w], seeds)
	b.round = 0
	for v := 0; v < c.N; v++ {
		xv := uint8(init[v])
		row := b.x[v*w : v*w+w]
		for i := range row {
			row[i] = xv
		}
	}
}

// Scatter copies lane c into dst[c]; each dst[c] must have length N.
func (b *SoABlock) Scatter(dst [][]int) {
	n, w := b.C.N, b.w
	if len(dst) != w {
		panic(fmt.Sprintf("csp: Scatter got %d destinations for %d lanes", len(dst), w))
	}
	for v := 0; v < n; v++ {
		row := b.x[v*w : v*w+w]
		for c, out := range dst {
			out[v] = int(row[c])
		}
	}
}

// Step advances all lanes by one round, reporting to Obs like
// Chain.Step (shard 0, flips uncounted).
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

// step is one LubyGlauber round over all lanes: one β fill, one
// hypergraph-neighborhood walk deciding every lane's Luby membership per
// variable, and lane-sequential heat-bath resampling of the winners (the
// winners of each lane are strongly independent, so in-place lane
// updates are exact).
func (b *SoABlock) step() {
	c, w := b.C, b.w
	n := c.N
	round := uint64(b.round)
	rng.KeysInto(b.kb[:w], b.seeds[:w], TagBeta, round)
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, round)
	beta := b.beta
	for v := 0; v < n; v++ {
		rng.LaneFloat64s(beta[v*w:v*w+w], b.kb[:w], uint64(v))
	}
	var full uint64
	if w == 64 {
		full = ^uint64(0)
	} else {
		full = (uint64(1) << w) - 1
	}
	for v := 0; v < n; v++ {
		// Luby membership per lane, betaLocalMax's strict tie-break:
		// lane i survives iff beta[v] > beta[u] for every hypergraph
		// neighbor u.
		mask := full
		vrow := beta[v*w : v*w+w]
		for _, u := range c.nbrIdx[c.nbrOff[v]:c.nbrOff[v+1]] {
			urow := beta[int(u)*w : int(u)*w+w]
			rem := mask
			for rem != 0 {
				i := bits.TrailingZeros64(rem)
				rem &= rem - 1
				if urow[i] >= vrow[i] {
					mask &^= 1 << i
				}
			}
			if mask == 0 {
				break
			}
		}
		for mask != 0 {
			i := bits.TrailingZeros64(mask)
			mask &= mask - 1
			if c.marginalLaneInto(b.x, w, i, v, b.marg, &b.ms) {
				b.x[v*w+i] = uint8(rng.CategoricalU(b.marg, b.ku[i].Float64(uint64(v))))
			}
		}
	}
	b.round++
}

// marginalLaneInto is marginalInto reading lane-strided state: the
// conditional marginal of v given lane's configuration. Same hoisted
// mixed-radix bases, same ascending-constraint product order, same
// zero-short-circuit — bit-identical weights, with the flat-configuration
// writes (set σ_v = a, restore) replaced by an explicit spin override.
func (c *CSP) marginalLaneInto(x []uint8, w, lane, v int, out []float64, ms *margScratch) bool {
	cons := c.vconsIdx[c.vconsOff[v]:c.vconsOff[v+1]]
	b := c.VertexB[v]
	for i, ci := range cons {
		ti := c.conTab[ci]
		if ti < 0 {
			ms.tabs[i] = nil // closure fallback, evaluated per spin below
			continue
		}
		t := c.tabs[ti]
		idx, vstride, stride := 0, 0, 1
		for _, u := range c.scope(ci) {
			if int(u) == v {
				vstride = stride
			} else {
				idx += int(x[int(u)*w+lane]) * stride
			}
			stride *= c.Q
		}
		ms.tabs[i] = t
		ms.base[i] = idx
		ms.stride[i] = vstride
	}
	total := 0.0
	for a := 0; a < c.Q; a++ {
		wgt := b[a]
		if wgt > 0 {
			for i, ci := range cons {
				if t := ms.tabs[i]; t != nil {
					wgt *= t.vals[ms.base[i]+a*ms.stride[i]]
				} else {
					wgt *= c.evalLane(int(ci), x, w, lane, v, a, ms.eval)
				}
				if wgt == 0 {
					break
				}
			}
		}
		out[a] = wgt
		total += wgt
	}
	if total <= 0 {
		return false
	}
	inv := 1 / total
	for a := 0; a < c.Q; a++ {
		out[a] *= inv
	}
	return true
}

// evalLane evaluates non-tabulated constraint ci's closure on lane's
// configuration with σ_v = a: the gather EvalOn performs, reading
// strided lane state with the spin override applied in place of the
// flat-configuration write.
func (c *CSP) evalLane(ci int, x []uint8, w, lane, v, a int, buf []int) float64 {
	scope := c.scope(int32(ci))
	vals := buf[:len(scope)]
	for j, p := range scope {
		if int(p) == v {
			vals[j] = a
		} else {
			vals[j] = int(x[int(p)*w+lane])
		}
	}
	return c.Cons[ci].F(vals)
}
