// Package rng provides the deterministic pseudo-randomness substrate used by
// every sampler in this repository.
//
// All randomness flows from explicit 64-bit seeds through splitmix64
// generators. Two facilities matter for the LOCAL model:
//
//   - Source: a sequential stream (one per vertex, or one per experiment).
//   - PRF: a keyed pseudo-random function over tuples of uint64s, used to
//     implement the paper's shared per-edge coins ("the two endpoints u and v
//     access the same random coin", §4): both endpoints evaluate
//     PRF(sharedSeed, edgeID, round) and obtain the same variate without any
//     communication.
//
// splitmix64 is the output-scrambled Weyl-sequence generator of Steele,
// Lea and Flood; it is statistically strong for simulation workloads, has a
// full 2^64 period, and — critically here — supports cheap key-derivation so
// that per-(vertex, round) streams are independent-looking yet reproducible.
package rng

import (
	"math"
	"math/bits"
)

// golden is the splitmix64 Weyl increment (2^64 / φ, rounded to odd).
const golden = 0x9e3779b97f4a7c15

// mix applies the splitmix64 output permutation to z.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic stream of pseudo-random values. The zero value
// is a valid stream seeded with 0; prefer New for explicit seeding.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield streams that
// are statistically independent for simulation purposes.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Derive returns a new Source whose stream is determined by the parent seed
// and the given identifiers. It is used to give each vertex (and each
// (vertex, round) pair) its own reproducible stream.
func Derive(seed uint64, ids ...uint64) *Source {
	return &Source{state: PRF(seed, ids...)}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Debiasing uses Lemire's nearly-divisionless method.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	v := s.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Bool returns a fair coin flip.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly in place (Fisher–Yates).
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Categorical samples an index from the unnormalized non-negative weight
// vector w. It panics if the total weight is zero, non-finite, or negative.
func (s *Source) Categorical(w []float64) int {
	total := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			panic("rng: Categorical weight must be finite and non-negative")
		}
		total += x
	}
	if total <= 0 {
		panic("rng: Categorical called with zero total weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	panic("rng: Categorical internal error")
}

// CategoricalU samples an index from the unnormalized weights w using the
// externally supplied uniform u in [0,1). Supplying the same u to two chains
// realizes the monotone shared-uniform coupling used in coalescence
// experiments (internal/coupling).
func CategoricalU(w []float64, u float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	t := u * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if t < acc {
			return i
		}
	}
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	panic("rng: CategoricalU called with zero total weight")
}

// PRF is a keyed pseudo-random function: it hashes (key, ids...) to 64
// uniform-looking bits. It is the basis of the shared edge coins and of
// stream derivation. Evaluations with distinct inputs are independent for
// simulation purposes; the same inputs always produce the same output.
func PRF(key uint64, ids ...uint64) uint64 {
	h := mix(key + golden)
	for _, id := range ids {
		h = mix(h ^ mix(id+golden))
	}
	return h
}

// PRFFloat64 returns the PRF output mapped to a uniform variate in [0, 1).
func PRFFloat64(key uint64, ids ...uint64) float64 {
	return float64(PRF(key, ids...)>>11) / (1 << 53)
}

// RoundKey is a precomputed partial key for the round kernels' dominant PRF
// shape, PRF(seed, tag, v, round): within one round only v varies, so the
// (seed, tag) absorption chain and the mixed round word are hoisted out of
// the per-vertex path. Evaluating a variate through a RoundKey costs 3 mix
// permutations instead of the 7 a full PRF(seed, tag, v, round) call pays,
// and yields bit-identical outputs (pinned by TestKeyMatchesPRF).
type RoundKey struct {
	prefix uint64 // chain state after absorbing (seed, tag)
	round  uint64 // mix(round+golden), absorbed after the varying id
}

// Key returns the RoundKey for (seed, tag, round): Key(s, t, r).Uint64(v) ==
// PRF(s, t, v, r) for every v.
func Key(seed, tag, round uint64) RoundKey {
	h := mix(seed + golden)
	h = mix(h ^ mix(tag+golden))
	return RoundKey{prefix: h, round: mix(round + golden)}
}

// Uint64 returns PRF(seed, tag, v, round) for the key's constant tuple.
func (k RoundKey) Uint64(v uint64) uint64 {
	return mix(mix(k.prefix^mix(v+golden)) ^ k.round)
}

// Float64 returns the keyed variate mapped to a uniform in [0, 1),
// bit-identical to PRFFloat64(seed, tag, v, round).
func (k RoundKey) Float64(v uint64) float64 {
	return float64(k.Uint64(v)>>11) / (1 << 53)
}

// FillFloat64s streams one round's variates into dst: dst[i] receives the
// uniform for id base+i, bit-identical to PRFFloat64(seed, tag, base+i,
// round). The round kernels use it to fill a whole round's β priorities (and
// the vertex-parallel mode to fill contiguous CSR ranges, passing the range
// start as base) without re-deriving the key per vertex.
func (k RoundKey) FillFloat64s(dst []float64, base uint64) {
	prefix, round := k.prefix, k.round
	for i := range dst {
		h := mix(mix(prefix^mix(base+uint64(i)+golden)) ^ round)
		dst[i] = float64(h>>11) / (1 << 53)
	}
}

// LaneFloat64s evaluates one variate per key at a shared id: dst[i] =
// keys[i].Float64(id), bit-identical, for every i < len(dst). The SoA
// block kernels draw a vertex's whole lane row this way, each lane's key
// at the vertex's id, so the id is mixed once per row and each lane
// finishes in 2 mixes instead of 3. RoundKey.Uint64 is over the inliner's
// budget, so the loop also saves a function call per variate.
func LaneFloat64s(dst []float64, keys []RoundKey, id uint64) {
	h := mix(id + golden)
	keys = keys[:len(dst)]
	for i, k := range keys {
		dst[i] = float64(mix(mix(k.prefix^h)^k.round)>>11) / (1 << 53)
	}
}

// KeysInto hoists one round's key schedule for a block of chains:
// dst[i] = Key(seeds[i], tag, round). The SoA batch kernels call it once
// per block per round — W key derivations amortized over one CSR walk
// that serves all W lanes — instead of deriving inside each chain's
// round as the per-chain kernels do. Each entry is exactly the RoundKey
// the corresponding single chain would compute, so lane variates stay
// bit-identical to per-chain draws.
func KeysInto(dst []RoundKey, seeds []uint64, tag, round uint64) {
	for i, s := range seeds {
		dst[i] = Key(s, tag, round)
	}
}

// CategoricalCumU is CategoricalU evaluated against a precomputed cumulative
// weight table: cum[i] must equal w[0]+...+w[i] accumulated left to right in
// that exact order, which makes cum[len-1] bitwise equal to the total
// CategoricalU would sum and every prefix equal to its running accumulator.
// The draw therefore binary-searches for the first index with u*total <
// cum[i] instead of linearly re-summing — O(log q) per draw at large q — and
// returns bit-identical indices (pinned by TestCategoricalCumUMatches). The
// raw weights w are consulted only on the measure-~2⁻⁵³ floating-point slack
// path, which must locate the last positive-weight index exactly as
// CategoricalU does (cum alone cannot: a tiny positive weight can be
// absorbed, leaving cum[i] == cum[i-1]).
func CategoricalCumU(w, cum []float64, u float64) int {
	n := len(cum)
	t := u * cum[n-1]
	if t < cum[0] {
		return 0
	}
	// Invariant: cum[lo] <= t, cum[hi] > t (if any index qualifies).
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t < cum[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	if t < cum[hi] {
		return hi
	}
	for i := n - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	panic("rng: CategoricalCumU called with zero total weight")
}

// CumSumInto fills cum with the left-to-right running sums of w — the table
// CategoricalCumU requires. Accumulation order matches CategoricalU's
// internal accumulator exactly, so the two draw paths agree bitwise.
func CumSumInto(w, cum []float64) {
	acc := 0.0
	for i, x := range w {
		acc += x
		cum[i] = acc
	}
}
