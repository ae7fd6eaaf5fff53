package locsample_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"locsample"
)

// FuzzRuntimeEquivalence is the differential safety net over every draw
// runtime. Each input builds a small random multigraph (isolated vertices
// and parallel edges allowed), puts an MRF (coloring, hardcore or Ising,
// extreme parameters included) or a weighted local CSP (arity 1–4) on it,
// and draws k chains under one master seed on every runtime that supports
// the drawn algorithm: per-chain, SoA blocks of width 8 and 16 (k always
// leaves a tail block), shards 2, 3 and 8 (8 takes the tree barrier),
// vertex-parallel rounds, a traced draw and chain 0 of a diagnosed draw.
// All must return the same bytes, and every sample must be feasible.
// Inputs the compiler rejects are skipped; a panic fails the target.
func FuzzRuntimeEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, seed uint64, model, alg, rounds, k uint8) {
		r := rand.New(rand.NewSource(int64(shape)))
		g := fuzzGraph(r)
		nrounds := 1 + int(rounds%16)
		nk := 17 + int(k%7)
		if model%5 >= 3 {
			checkCSPRuntimes(t, r, g, seed, nrounds, nk)
			return
		}
		m := fuzzMRF(r, g, model%5)
		a := []locsample.Algorithm{locsample.Glauber, locsample.LubyGlauber, locsample.LocalMetropolis}[alg%3]
		checkMRFRuntimes(t, m, a, seed, nrounds, nk)
	})
}

// fuzzGraph draws 8–24 vertices (so 8 shards always fit) and up to 2n
// random edges, repeating an earlier edge a quarter of the time.
func fuzzGraph(r *rand.Rand) *locsample.Graph {
	n := 8 + r.Intn(17)
	b := locsample.NewGraphBuilder(n)
	var edges [][2]int
	for i := r.Intn(2*n + 1); i > 0; i-- {
		if len(edges) > 0 && r.Intn(4) == 0 {
			e := edges[r.Intn(len(edges))]
			b.AddEdge(e[0], e[1])
			continue
		}
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		edges = append(edges, [2]int{u, v})
	}
	return b.Build()
}

// extremes are the parameter values MRF inputs draw from: near-zero,
// moderate, and huge activities.
var extremes = []float64{1e-12, 0.01, 0.5, 1, 3, 1e12}

func fuzzMRF(r *rand.Rand, g *locsample.Graph, kind uint8) *locsample.Model {
	switch kind {
	case 0:
		return locsample.NewColoring(g, 2+r.Intn(5))
	case 1:
		return locsample.NewHardcore(g, extremes[r.Intn(len(extremes))])
	default:
		beta := append([]float64{0}, extremes...)[r.Intn(len(extremes)+1)]
		return locsample.NewIsing(g, beta, extremes[r.Intn(len(extremes))])
	}
}

// mrfFeasible checks every factor of the Gibbs weight separately: the
// product itself can underflow at extreme parameters.
func mrfFeasible(m *locsample.Model, x []int) bool {
	for v, xv := range x {
		if m.VertexB[v][xv] <= 0 {
			return false
		}
	}
	for id, e := range m.G.Edges() {
		if m.EdgeA[id].At(x[e.U], x[e.V]) <= 0 {
			return false
		}
	}
	return true
}

func checkMRFRuntimes(t *testing.T, m *locsample.Model, alg locsample.Algorithm, seed uint64, rounds, k int) {
	base := []locsample.Option{locsample.WithAlgorithm(alg), locsample.WithRounds(rounds), locsample.WithSeed(seed)}
	ref, err := locsample.NewSampler(m, append(base, locsample.WithBatchWidth(1))...)
	if err != nil {
		t.Skipf("compiler rejects the input: %v", err)
	}
	defer ref.Close()
	want := drawN(t, "per-chain", ref.SampleNFrom, seed, k, 0)
	for i, x := range want {
		if !mrfFeasible(m, x) {
			t.Fatalf("chain %d: infeasible sample %v", i, x)
		}
	}
	for _, v := range variants(alg != locsample.Glauber) {
		s, err := locsample.NewSampler(m, append(base, v.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		sameSamples(t, v.name, drawN(t, v.name, s.SampleNFrom, seed, k, v.width), want)
		s.Close()
	}
	res, err := ref.Draw(context.Background(), locsample.DrawRequest{Seed: locsample.ChainSeed(seed, k-1), Trace: true})
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	sameSamples(t, "traced", res.Samples, want[k-1:])
	res, err = ref.Draw(context.Background(), locsample.DrawRequest{Seed: locsample.ChainSeed(seed, 0), Diagnose: true})
	if err != nil {
		t.Fatalf("diagnosed: %v", err)
	}
	sameSamples(t, "diagnosed", res.Samples, want[:1])
}

// fuzzCSP puts one constraint of arity 1–4 on each vertex: the vertex
// plus up to three distinct neighbors. Weights and activities are drawn
// from {0, tiny, moderate, huge}, except at a hidden assignment that is
// kept feasible, so the input always has a feasible start.
func fuzzCSP(r *rand.Rand, g *locsample.Graph) (*locsample.CSPModel, []int, error) {
	n, q := g.N(), 2+r.Intn(2)
	hidden := make([]int, n)
	for v := range hidden {
		hidden[v] = r.Intn(q)
	}
	weights := []float64{0, 1e-9, 0.5, 1, 7, 1e9}
	act := make([][]float64, n)
	for v := range act {
		act[v] = make([]float64, q)
		for a := range act[v] {
			act[v][a] = weights[r.Intn(len(weights))]
		}
		act[v][hidden[v]] = 1 + r.Float64()
	}
	cons := make([]locsample.CSPConstraint, n)
	for v := range cons {
		scope := []int32{int32(v)}
		want := 1 + r.Intn(4)
		for _, u := range g.Adj(v) {
			if len(scope) == want {
				break
			}
			dup := false
			for _, w := range scope {
				dup = dup || w == u
			}
			if !dup {
				scope = append(scope, u)
			}
		}
		table := make([]float64, 1<<(2*len(scope)))
		for i := range table {
			table[i] = weights[r.Intn(len(weights))]
		}
		index := func(vals []int) int {
			i := 0
			for _, x := range vals {
				i = i<<2 | x
			}
			return i
		}
		hv := make([]int, len(scope))
		for j, u := range scope {
			hv[j] = hidden[u]
		}
		table[index(hv)] = 1 + r.Float64()
		cons[v] = locsample.CSPConstraint{Scope: scope, F: func(vals []int) float64 { return table[index(vals)] }}
	}
	c, err := locsample.NewCSP(n, q, act, cons)
	return c, hidden, err
}

// cspFeasible checks every constraint and activity factor separately.
func cspFeasible(c *locsample.CSPModel, x []int) bool {
	for v, xv := range x {
		if c.VertexB[v][xv] <= 0 {
			return false
		}
	}
	for _, con := range c.Cons {
		vals := make([]int, len(con.Scope))
		for j, u := range con.Scope {
			vals[j] = x[u]
		}
		if con.F(vals) <= 0 {
			return false
		}
	}
	return true
}

func checkCSPRuntimes(t *testing.T, r *rand.Rand, g *locsample.Graph, seed uint64, rounds, k int) {
	c, init, err := fuzzCSP(r, g)
	if err != nil {
		t.Skipf("compiler rejects the input: %v", err)
	}
	base := []locsample.Option{locsample.WithRounds(rounds), locsample.WithSeed(seed)}
	ref, err := locsample.NewCSPSampler(g, c, init, append(base, locsample.WithBatchWidth(1))...)
	if err != nil {
		t.Skipf("compiler rejects the input: %v", err)
	}
	defer ref.Close()
	want := drawN(t, "per-chain", ref.SampleNFrom, seed, k, 0)
	for i, x := range want {
		if !cspFeasible(c, x) {
			t.Fatalf("chain %d: infeasible sample %v", i, x)
		}
	}
	for _, v := range variants(true) {
		s, err := locsample.NewCSPSampler(g, c, init, append(base, v.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		sameSamples(t, v.name, drawN(t, v.name, s.SampleNFrom, seed, k, v.width), want)
		s.Close()
	}
	x, err := ref.Draw(context.Background(), locsample.DrawRequest{Seed: locsample.ChainSeed(seed, k-1), Trace: true})
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	sameSamples(t, "traced", x.Samples, want[k-1:])
	x, err = ref.Draw(context.Background(), locsample.DrawRequest{Seed: locsample.ChainSeed(seed, 0), Diagnose: true})
	if err != nil {
		t.Fatalf("diagnosed: %v", err)
	}
	sameSamples(t, "diagnosed", x.Samples, want[:1])
}

// variant is one runtime the per-chain reference is checked against.
type variant struct {
	name  string
	width int // SoA lane width the batch must run at (0: not SoA)
	opts  []locsample.Option
}

// variants lists the runtimes to check: SoA blocks always, the in-chain
// runtimes (shards, vertex-parallel rounds) when the chain supports them.
func variants(inChain bool) []variant {
	vs := []variant{
		{"soa8", 8, []locsample.Option{locsample.WithBatchWidth(8)}},
		{"soa16", 16, []locsample.Option{locsample.WithBatchWidth(16)}},
	}
	if inChain {
		vs = append(vs,
			variant{"shards2", 0, []locsample.Option{locsample.WithShards(2)}},
			variant{"shards3", 0, []locsample.Option{locsample.WithShards(3), locsample.WithShardStrategy(locsample.ShardBFS)}},
			variant{"shards8", 0, []locsample.Option{locsample.WithShards(8)}},
			variant{"parallel", 0, []locsample.Option{locsample.WithParallelRounds(3)}})
	}
	return vs
}

// drawN draws a k-chain batch and checks which path it took.
func drawN(t *testing.T, name string, sampleN func(uint64, int) (*locsample.Batch, error), seed uint64, k, width int) [][]int {
	t.Helper()
	b, err := sampleN(seed, k)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if b.SoAWidth != width {
		t.Fatalf("%s: ran at SoA width %d, want %d", name, b.SoAWidth, width)
	}
	return b.Samples
}

func sameSamples(t *testing.T, name string, got, want [][]int) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s diverges from the per-chain runtime:\n got %v\nwant %v", name, got, want)
	}
}
