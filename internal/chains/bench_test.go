package chains

import (
	"testing"

	"locsample/internal/graph"
	"locsample/internal/mrf"
)

func benchModel(b *testing.B, q int) (*mrf.MRF, []int, *Scratch) {
	b.Helper()
	g := graph.Torus(32, 32)
	m := mrf.Coloring(g, q)
	init, err := GreedyFeasible(m)
	if err != nil {
		b.Fatal(err)
	}
	return m, init, NewScratch(m)
}

func BenchmarkGlauberStep(b *testing.B) {
	m, x, sc := benchModel(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GlauberStep(m, x, 1, i, sc)
	}
}

func BenchmarkLubyGlauberRoundTorus(b *testing.B) {
	m, x, sc := benchModel(b, 12)
	b.ReportMetric(float64(m.G.N()), "vertices")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LubyGlauberRound(m, x, 1, i, sc)
	}
}

func BenchmarkLocalMetropolisRoundTorus(b *testing.B) {
	m, x, sc := benchModel(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalMetropolisRound(m, x, 1, i, false, sc)
	}
}

func BenchmarkColoringFastPathTorus(b *testing.B) {
	m, x, sc := benchModel(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ColoringLocalMetropolisRound(m, x, 1, i, false, sc)
	}
}

func BenchmarkMarginalInto(b *testing.B) {
	m, x, sc := benchModel(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarginalInto(i%m.G.N(), x, sc.marg)
	}
}

func BenchmarkHardcoreLubyGlauber(b *testing.B) {
	g := graph.Torus(32, 32)
	m := mrf.Hardcore(g, 0.7)
	init := make([]int, g.N())
	sc := NewScratch(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LubyGlauberRound(m, init, 1, i, sc)
	}
}

// BenchmarkSoABlockRound times one SoA block round at width 32 on a
// 128×128 grid (the batch-soa workload's block) and reports the cost of
// one lane-update: one vertex of one lane.
func BenchmarkSoABlockRound(b *testing.B) {
	const w = 32
	g := graph.Grid(128, 128)
	for _, tc := range []struct {
		name string
		m    *mrf.MRF
		alg  Algorithm
	}{
		{"coloring-localmetropolis", mrf.Coloring(g, 16), LocalMetropolis},
		{"hardcore-lubyglauber", mrf.Hardcore(g, 1), LubyGlauber},
	} {
		b.Run(tc.name, func(b *testing.B) {
			init, err := GreedyFeasible(tc.m)
			if err != nil {
				b.Fatal(err)
			}
			seeds := make([]uint64, w)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			blk := NewSoABlock(tc.m, tc.alg, Options{}, w)
			blk.Reset(init, seeds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.N()*w), "ns/lane-update")
		})
	}
}
