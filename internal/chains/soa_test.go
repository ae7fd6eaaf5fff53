package chains

import (
	"testing"

	"locsample/internal/graph"
	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// soaTestCases spans every SoA kernel branch: Glauber, LubyGlauber, the
// symmetric coloring LocalMetropolis fast path, its dropRule3 edge-mask
// variant, and the general (non-coloring) LocalMetropolis filter.
func soaTestCases() []struct {
	name string
	m    *mrf.MRF
	alg  Algorithm
	opts Options
} {
	g := graph.Grid(5, 6)
	return []struct {
		name string
		m    *mrf.MRF
		alg  Algorithm
		opts Options
	}{
		{"glauber-coloring", mrf.Coloring(g, 15), Glauber, Options{}},
		{"lubyglauber-coloring", mrf.Coloring(g, 9), LubyGlauber, Options{}},
		{"lubyglauber-hardcore", mrf.Hardcore(g, 1.1), LubyGlauber, Options{}},
		{"localmetropolis-coloring", mrf.Coloring(g, 15), LocalMetropolis, Options{}},
		{"localmetropolis-coloring-droprule3", mrf.Coloring(g, 15), LocalMetropolis, Options{DropRule3: true}},
		{"localmetropolis-ising", mrf.Ising(g, 1.1, 0.5), LocalMetropolis, Options{}},
	}
}

// TestSoARoundsMatchSequential pins the block engine's determinism
// contract at the kernel level: lane i of an SoA block seeded
// {s_0..s_{w-1}} reproduces the per-chain Sampler at seed s_i
// bit-for-bit, at every tested width (including widths that are not
// powers of two and a full 64-lane block on the widest case).
func TestSoARoundsMatchSequential(t *testing.T) {
	const rounds = 25
	for _, tc := range soaTestCases() {
		t.Run(tc.name, func(t *testing.T) {
			init, err := GreedyFeasible(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			widths := []int{1, 3, 8, 33}
			if tc.name == "lubyglauber-coloring" {
				widths = append(widths, 64)
			}
			for _, w := range widths {
				seeds := make([]uint64, w)
				for i := range seeds {
					seeds[i] = rng.PRF(1234, uint64(i))
				}
				blk := NewSoABlock(tc.m, tc.alg, tc.opts, w)
				blk.Reset(init, seeds)
				blk.Run(rounds)
				got := make([][]int, w)
				for i := range got {
					got[i] = make([]int, tc.m.G.N())
				}
				blk.Scatter(got)
				for i, seed := range seeds {
					ref := NewSampler(tc.m, init, seed, tc.alg, tc.opts)
					ref.Run(rounds)
					for v := range ref.X {
						if got[i][v] != ref.X[v] {
							t.Fatalf("w=%d lane=%d: diverges from per-chain sampler at vertex %d (round budget %d)", w, i, v, rounds)
						}
					}
				}
			}
		})
	}
}

// TestSoABlockReuseAcrossWidths: one block serves successive runs at any
// width up to its construction width, with no state leaking between runs.
func TestSoABlockReuseAcrossWidths(t *testing.T) {
	m := mrf.Coloring(graph.Grid(4, 4), 9)
	init, _ := GreedyFeasible(m)
	blk := NewSoABlock(m, LubyGlauber, Options{}, 16)
	for _, w := range []int{16, 5, 1, 12} {
		seeds := make([]uint64, w)
		for i := range seeds {
			seeds[i] = rng.PRF(7, uint64(w), uint64(i))
		}
		blk.Reset(init, seeds)
		blk.Run(10)
		got := make([][]int, w)
		for i := range got {
			got[i] = make([]int, m.G.N())
		}
		blk.Scatter(got)
		for i, seed := range seeds {
			ref := NewSampler(m, init, seed, LubyGlauber, Options{})
			ref.Run(10)
			for v := range ref.X {
				if got[i][v] != ref.X[v] {
					t.Fatalf("reused block at w=%d lane=%d diverges at vertex %d", w, i, v)
				}
			}
		}
	}
}

// TestSoABlockStepAllocFree gates the block hot path at zero allocations
// per round — bare and instrumented (the alloc-gate satellite of the SoA
// engine).
func TestSoABlockStepAllocFree(t *testing.T) {
	for _, tc := range soaTestCases() {
		t.Run(tc.name, func(t *testing.T) {
			init, err := GreedyFeasible(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			seeds := make([]uint64, 8)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			blk := NewSoABlock(tc.m, tc.alg, tc.opts, 8)
			blk.Reset(init, seeds)
			if n := testing.AllocsPerRun(20, func() { blk.Step() }); n != 0 {
				t.Fatalf("bare SoA Step allocates %v/round, want 0", n)
			}
			obs := &countingObserver{}
			blk.Obs = obs
			if n := testing.AllocsPerRun(20, func() { blk.Step() }); n != 0 {
				t.Fatalf("instrumented SoA Step allocates %v/round, want 0", n)
			}
			if obs.rounds == 0 {
				t.Fatal("observer saw no rounds")
			}
		})
	}
}

// TestSoABlockPanics: construction and Reset reject out-of-range widths
// and unsupported algorithms.
func TestSoABlockPanics(t *testing.T) {
	m := mrf.Coloring(graph.Cycle(6), 4)
	init, _ := GreedyFeasible(m)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("width 0", func() { NewSoABlock(m, LubyGlauber, Options{}, 0) })
	expectPanic("width 65", func() { NewSoABlock(m, LubyGlauber, Options{}, 65) })
	expectPanic("scan", func() { NewSoABlock(m, SystematicScan, Options{}, 8) })
	blk := NewSoABlock(m, LubyGlauber, Options{}, 8)
	expectPanic("too many seeds", func() { blk.Reset(init, make([]uint64, 9)) })
	expectPanic("no seeds", func() { blk.Reset(init, nil) })
	expectPanic("bad init", func() { blk.Reset(init[:2], make([]uint64, 4)) })
}

// TestEqBytesBitIdentical checks the word-parallel rule test against a
// per-byte comparison, exhaustively: every pair of byte values at each of
// the 8 positions of a word, with random bytes elsewhere. It must flag
// exactly the positions where the two bytes are equal. The other bytes
// differ by XOR patterns that would carry or borrow into a neighboring
// byte under an inexact test (0x01, 0x7f, 0x80, 0xff), by nothing, or at
// random.
func TestEqBytesBitIdentical(t *testing.T) {
	src := rng.New(3)
	patterns := []uint64{0, 0x01, 0x7f, 0x80, 0xff}
	for pos := 0; pos < 8; pos++ {
		sh := uint(8 * pos)
		for x := 0; x < 256; x++ {
			for y := 0; y < 256; y++ {
				a := src.Uint64()
				var d uint64
				for i := uint(0); i < 8; i++ {
					p := src.Uint64() & 0xff
					if k := src.Intn(len(patterns) + 1); k < len(patterns) {
						p = patterns[k]
					}
					d |= p << (8 * i)
				}
				b := a ^ d
				a = a&^(0xff<<sh) | uint64(x)<<sh
				b = b&^(0xff<<sh) | uint64(y)<<sh
				var want uint64
				for i := uint(0); i < 8; i++ {
					if byte(a>>(8*i)) == byte(b>>(8*i)) {
						want |= 0x80 << (8 * i)
					}
				}
				if got := eqBytes(a, b); got != want {
					t.Fatalf("eqBytes(%#016x, %#016x) = %#016x, want %#016x", a, b, got, want)
				}
			}
		}
	}
}

// TestSoAWidestLanesMatchSequential runs the widest byte-lane models —
// q = 256, so proposals and resamples reach spin 255 — on every SoA
// kernel at widths 8, 13 and 33. Widths 13 and 33 leave partial words,
// so dead lanes ride along through the word-parallel filter; every live
// lane must still equal the per-chain Sampler at its seed.
func TestSoAWidestLanesMatchSequential(t *testing.T) {
	const rounds = 20
	g := graph.Grid(5, 6)
	coloring := mrf.Coloring(g, MaxLaneQ)
	for _, tc := range []struct {
		name string
		m    *mrf.MRF
		alg  Algorithm
		opts Options
	}{
		{"localmetropolis-coloring", coloring, LocalMetropolis, Options{}},
		{"localmetropolis-coloring-droprule3", coloring, LocalMetropolis, Options{DropRule3: true}},
		{"localmetropolis-potts", mrf.Potts(g, MaxLaneQ, 0.3), LocalMetropolis, Options{}},
		{"lubyglauber-coloring", coloring, LubyGlauber, Options{}},
		{"glauber-coloring", coloring, Glauber, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			init, err := GreedyFeasible(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{8, 13, 33} {
				seeds := make([]uint64, w)
				for i := range seeds {
					seeds[i] = rng.PRF(256, uint64(w), uint64(i))
				}
				blk := NewSoABlock(tc.m, tc.alg, tc.opts, w)
				blk.Reset(init, seeds)
				blk.Run(rounds)
				got := make([][]int, w)
				for i := range got {
					got[i] = make([]int, tc.m.G.N())
				}
				blk.Scatter(got)
				for i, seed := range seeds {
					ref := NewSampler(tc.m, init, seed, tc.alg, tc.opts)
					ref.Run(rounds)
					for v := range ref.X {
						if got[i][v] != ref.X[v] {
							t.Fatalf("w=%d lane=%d: %d at vertex %d, per-chain sampler has %d", w, i, got[i][v], v, ref.X[v])
						}
					}
				}
			}
		})
	}
}

// TestSoABlockRejectsWideQ: a model with more spins than a byte lane
// holds has no SoA block; the runtime keeps it per-chain.
func TestSoABlockRejectsWideQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSoABlock accepted q = 257")
		}
	}()
	NewSoABlock(mrf.Coloring(graph.Cycle(6), MaxLaneQ+1), LocalMetropolis, Options{}, 8)
}
