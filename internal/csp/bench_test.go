package csp

// Round-kernel benchmarks: the rebuilt kernels against the seed-era
// references kept in kernels_ref_test.go, plus the steady-state allocation
// gate — one CSP round must allocate nothing.

import (
	"testing"

	"locsample/internal/graph"
)

func benchDomset(b *testing.B) (*CSP, []int) {
	b.Helper()
	c := DominatingSet(graph.Grid(64, 64))
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	return c, init
}

func benchNAE(b *testing.B) (*CSP, []int) {
	b.Helper()
	const n = 4096
	scopes := make([][]int32, n)
	for i := range scopes {
		scopes[i] = []int32{int32(i), int32((i + 1) % n), int32((i + 2) % n)}
	}
	c := NotAllEqual(n, 3, scopes)
	init := make([]int, n)
	for i := range init {
		init[i] = i % 3
	}
	return c, init
}

func BenchmarkCSPLubyGlauberRound(b *testing.B) {
	for _, w := range []struct {
		name  string
		build func(*testing.B) (*CSP, []int)
	}{{"domset-grid64x64", benchDomset}, {"nae4096-q3", benchNAE}} {
		c, init := w.build(b)
		b.Run(w.name+"/new", func(b *testing.B) {
			x := append([]int(nil), init...)
			sc := NewScratch(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LubyGlauberRoundPRF(c, x, 1, i, sc)
			}
		})
		b.Run(w.name+"/ref", func(b *testing.B) {
			x := append([]int(nil), init...)
			marg := make([]float64, c.Q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refLubyGlauberRoundPRF(c, x, 1, i, marg)
			}
		})
	}
}

func BenchmarkCSPLocalMetropolisRound(b *testing.B) {
	for _, w := range []struct {
		name  string
		build func(*testing.B) (*CSP, []int)
	}{{"domset-grid64x64", benchDomset}, {"nae4096-q3", benchNAE}} {
		c, init := w.build(b)
		b.Run(w.name+"/new", func(b *testing.B) {
			x := append([]int(nil), init...)
			sc := NewScratch(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LocalMetropolisRoundPRF(c, x, 1, i, sc)
			}
		})
		b.Run(w.name+"/ref", func(b *testing.B) {
			x := append([]int(nil), init...)
			marg := make([]float64, c.Q)
			prop := make([]int, c.N)
			pass := make([]bool, len(c.Cons))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refLocalMetropolisRoundPRF(c, x, 1, i, marg, prop, pass)
			}
		})
	}
}

// BenchmarkCSPSoABlockRound times one SoA block round of the dominating
// set CSP at width 32 on a 128×128 grid (the batch-soa workload's block)
// and reports the cost of one lane-update: one variable of one lane.
func BenchmarkCSPSoABlockRound(b *testing.B) {
	const w = 32
	c := DominatingSet(graph.Grid(128, 128))
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	seeds := make([]uint64, w)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	blk := NewSoABlock(c, w)
	blk.Reset(init, seeds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.N*w), "ns/lane-update")
}

// TestCSPRoundsAllocFree is the steady-state allocation gate: with scratch
// compiled, neither round kernel may allocate — the serving path runs one
// of these per chain per round.
func TestCSPRoundsAllocFree(t *testing.T) {
	c := DominatingSet(graph.Grid(16, 16))
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	x := append([]int(nil), init...)
	sc := NewScratch(c)
	round := 0
	if n := testing.AllocsPerRun(20, func() {
		LubyGlauberRoundPRF(c, x, 1, round, sc)
		round++
	}); n != 0 {
		t.Fatalf("LubyGlauberRoundPRF allocates %v per round, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		LocalMetropolisRoundPRF(c, x, 1, round, sc)
		round++
	}); n != 0 {
		t.Fatalf("LocalMetropolisRoundPRF allocates %v per round, want 0", n)
	}
}
