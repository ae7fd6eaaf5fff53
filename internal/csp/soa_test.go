package csp

import (
	"testing"

	"locsample/internal/graph"
	"locsample/internal/rng"
)

// TestCSPSoARoundsMatchSequential pins the CSP block engine's determinism
// contract: lane i of an SoA block reproduces LubyGlauberRoundPRF at seed
// seeds[i] bit-for-bit, at every tested width, across every kernel test
// CSP (tabulated constraints of mixed arity, closure fallbacks, soft
// activities).
func TestCSPSoARoundsMatchSequential(t *testing.T) {
	const rounds = 20
	for _, tc := range kernelTestCSPs(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 3, 8, 33} {
				seeds := make([]uint64, w)
				for i := range seeds {
					seeds[i] = rng.PRF(99, uint64(i))
				}
				blk := NewSoABlock(tc.c, w)
				blk.Reset(tc.init, seeds)
				for r := 0; r < rounds; r++ {
					blk.Step()
				}
				got := make([][]int, w)
				for i := range got {
					got[i] = make([]int, tc.c.N)
				}
				blk.Scatter(got)
				sc := NewScratch(tc.c)
				for i, seed := range seeds {
					ref := append([]int(nil), tc.init...)
					for r := 0; r < rounds; r++ {
						LubyGlauberRoundPRF(tc.c, ref, seed, r, sc)
					}
					for v := range ref {
						if got[i][v] != ref[v] {
							t.Fatalf("w=%d lane=%d: diverges from LubyGlauberRoundPRF at variable %d", w, i, v)
						}
					}
				}
			}
		})
	}
}

// TestCSPSoABlockStepAllocFree gates the CSP block hot path at zero
// allocations per round.
func TestCSPSoABlockStepAllocFree(t *testing.T) {
	for _, tc := range kernelTestCSPs(t) {
		t.Run(tc.name, func(t *testing.T) {
			seeds := make([]uint64, 8)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			blk := NewSoABlock(tc.c, 8)
			blk.Reset(tc.init, seeds)
			if n := testing.AllocsPerRun(20, func() { blk.Step() }); n != 0 {
				t.Fatalf("SoA Step allocates %v/round, want 0", n)
			}
		})
	}
}

// TestCSPSoABlockReuse: a block rewound at a narrower width reproduces
// fresh-block trajectories (no stale lane state).
func TestCSPSoABlockReuse(t *testing.T) {
	tc := kernelTestCSPs(t)[0]
	blk := NewSoABlock(tc.c, 16)
	for _, w := range []int{16, 4, 9} {
		seeds := make([]uint64, w)
		for i := range seeds {
			seeds[i] = rng.PRF(3, uint64(w), uint64(i))
		}
		blk.Reset(tc.init, seeds)
		for r := 0; r < 10; r++ {
			blk.Step()
		}
		got := make([][]int, w)
		for i := range got {
			got[i] = make([]int, tc.c.N)
		}
		blk.Scatter(got)
		sc := NewScratch(tc.c)
		for i, seed := range seeds {
			ref := append([]int(nil), tc.init...)
			for r := 0; r < 10; r++ {
				LubyGlauberRoundPRF(tc.c, ref, seed, r, sc)
			}
			for v := range ref {
				if got[i][v] != ref[v] {
					t.Fatalf("reused block at w=%d lane=%d diverges at variable %d", w, i, v)
				}
			}
		}
	}
}

// widestLaneCSP is a proper q-coloring of a 9-cycle as a binary CSP.
func widestLaneCSP(t *testing.T, q int) (*CSP, []int) {
	t.Helper()
	g := graph.Cycle(9)
	uni := make([][]float64, g.N())
	for i := range uni {
		uni[i] = make([]float64, q)
		for a := range uni[i] {
			uni[i][a] = 1
		}
	}
	c := FromMRF(g, q, func(_, a, b int) float64 {
		if a == b {
			return 0
		}
		return 1
	}, uni)
	init := make([]int, g.N())
	for i := range init {
		init[i] = i % 3
	}
	if !c.Feasible(init) {
		t.Fatal("test init infeasible")
	}
	return c, init
}

// TestCSPSoAWidestLanesMatchSequential runs the widest byte-lane CSP,
// q = 256, at widths 8, 13 and 33: every lane must equal
// LubyGlauberRoundPRF at its seed, resamples up to spin 255 included.
func TestCSPSoAWidestLanesMatchSequential(t *testing.T) {
	const rounds = 20
	c, init := widestLaneCSP(t, MaxLaneQ)
	sc := NewScratch(c)
	for _, w := range []int{8, 13, 33} {
		seeds := make([]uint64, w)
		for i := range seeds {
			seeds[i] = rng.PRF(256, uint64(w), uint64(i))
		}
		blk := NewSoABlock(c, w)
		blk.Reset(init, seeds)
		blk.Run(rounds)
		got := make([][]int, w)
		for i := range got {
			got[i] = make([]int, c.N)
		}
		blk.Scatter(got)
		for i, seed := range seeds {
			ref := append([]int(nil), init...)
			for r := 0; r < rounds; r++ {
				LubyGlauberRoundPRF(c, ref, seed, r, sc)
			}
			for v := range ref {
				if got[i][v] != ref[v] {
					t.Fatalf("w=%d lane=%d: %d at variable %d, LubyGlauberRoundPRF has %d", w, i, got[i][v], v, ref[v])
				}
			}
		}
	}
}

// TestCSPSoABlockRejectsWideQ: a CSP with more spins than a byte lane
// holds has no SoA block; the runtime keeps it per-chain.
func TestCSPSoABlockRejectsWideQ(t *testing.T) {
	c, _ := widestLaneCSP(t, MaxLaneQ+1)
	defer func() {
		if recover() == nil {
			t.Fatal("NewSoABlock accepted q = 257")
		}
	}()
	NewSoABlock(c, 8)
}
