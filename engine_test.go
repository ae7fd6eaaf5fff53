package locsample_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"locsample"
)

// TestSampleNMatchesDerivedSeedSamples pins the batch determinism contract:
// chain i of SampleN(k) with master seed s is bit-identical to a single
// Sample with seed ChainSeed(s, i), for every algorithm the engine runs.
func TestSampleNMatchesDerivedSeedSamples(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	for _, tc := range []struct {
		name  string
		model *locsample.Model
		alg   locsample.Algorithm
	}{
		{"localmetropolis-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.LocalMetropolis},
		{"lubyglauber-coloring", locsample.NewColoring(g, 2*g.MaxDeg()+1), locsample.LubyGlauber},
		{"lubyglauber-hardcore", locsample.NewHardcore(g, 0.7), locsample.LubyGlauber},
		{"glauber-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.Glauber},
		{"localmetropolis-ising", locsample.NewIsing(g, 0.9, 0.4), locsample.LocalMetropolis},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, k = 42, 6
			opts := []locsample.Option{
				locsample.WithAlgorithm(tc.alg),
				locsample.WithRounds(40),
			}
			s, err := locsample.NewSampler(tc.model, append(opts, locsample.WithSeed(seed))...)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := s.SampleN(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Samples) != k || batch.Rounds != 40 {
				t.Fatalf("batch shape: %d samples, %d rounds", len(batch.Samples), batch.Rounds)
			}
			for i := 0; i < k; i++ {
				single, err := locsample.Sample(tc.model,
					append(opts, locsample.WithSeed(locsample.ChainSeed(seed, i)))...)
				if err != nil {
					t.Fatal(err)
				}
				for v := range single.Sample {
					if batch.Samples[i][v] != single.Sample[v] {
						t.Fatalf("chain %d diverges from derived-seed Sample at vertex %d", i, v)
					}
				}
			}
		})
	}
}

// TestSampleNWorkerCountInvariance: results are positionally stable no
// matter how the worker pool carves up the batch.
func TestSampleNWorkerCountInvariance(t *testing.T) {
	g := locsample.TorusGraph(6, 6)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	const seed, k = 11, 12
	var ref *locsample.Batch
	for _, workers := range []int{1, 3, 8} {
		s, err := locsample.NewSampler(model,
			locsample.WithSeed(seed),
			locsample.WithRounds(30),
			locsample.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.SampleN(k)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = batch
			continue
		}
		for i := range batch.Samples {
			for v := range batch.Samples[i] {
				if batch.Samples[i][v] != ref.Samples[i][v] {
					t.Fatalf("workers=%d changed chain %d at vertex %d", workers, i, v)
				}
			}
		}
	}
}

// TestSampleNDistributed: the engine's distributed mode keeps the same
// per-chain determinism, through the message-passing runtime.
func TestSampleNDistributed(t *testing.T) {
	g := locsample.CycleGraph(16)
	model := locsample.NewColoring(g, 8)
	opts := []locsample.Option{
		locsample.WithSeed(5),
		locsample.WithRounds(20),
	}
	central, err := locsample.NewSampler(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	distr, err := locsample.NewSampler(model, append(opts, locsample.Distributed())...)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	cb, err := central.SampleN(k)
	if err != nil {
		t.Fatal(err)
	}
	db, err := distr.SampleN(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for v := range cb.Samples[i] {
			if cb.Samples[i][v] != db.Samples[i][v] {
				t.Fatalf("modes disagree on chain %d at vertex %d", i, v)
			}
		}
	}

	// A traced draw on the LOCAL-model runtime returns Sample's bytes;
	// the runtime has no round hooks, so its trace holds only the
	// draw-level span.
	plain, err := distr.Sample()
	if err != nil {
		t.Fatal(err)
	}
	traced, err := distr.Draw(context.Background(), locsample.DrawRequest{Seed: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Samples, [][]int{plain.Sample}) {
		t.Fatal("traced distributed draw diverged from Sample")
	}
	if traced.Stats != plain.Stats {
		t.Fatalf("traced distributed draw stats %+v, Sample's %+v", traced.Stats, plain.Stats)
	}
	spans := traced.Trace.Spans()
	if len(spans) != 1 || spans[0].Name != "draw" {
		t.Fatalf("traced distributed draw recorded %+v, want one draw span", spans)
	}
}

// drawFamilies compiles the same options for an MRF and a CSP sampler,
// for tests that check Draw on both families.
func drawFamilies(t *testing.T, opts ...locsample.Option) map[string]interface {
	Draw(context.Context, locsample.DrawRequest) (*locsample.Batch, error)
	SampleNFrom(uint64, int) (*locsample.Batch, error)
} {
	t.Helper()
	g := locsample.GridGraph(6, 6)
	mrf, err := locsample.NewSampler(locsample.NewColoring(g, 3*g.MaxDeg()+1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mrf.Close() })
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	csp, err := locsample.NewCSPSampler(g, locsample.NewDominatingSet(g), init, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { csp.Close() })
	return map[string]interface {
		Draw(context.Context, locsample.DrawRequest) (*locsample.Batch, error)
		SampleNFrom(uint64, int) (*locsample.Batch, error)
	}{"mrf": mrf, "csp": csp}
}

// TestDrawRejectsInvalidRequests: Draw refuses a negative chain count, a
// traced or diagnosed draw of more than one chain, and a draw that is
// both traced and diagnosed, on both families.
func TestDrawRejectsInvalidRequests(t *testing.T) {
	for name, s := range drawFamilies(t, locsample.WithRounds(5), locsample.WithSeed(1)) {
		for _, req := range []locsample.DrawRequest{
			{K: -1},
			{K: 2, Trace: true},
			{K: 2, Diagnose: true},
			{Trace: true, Diagnose: true},
			{K: 1, Trace: true, Diagnose: true},
		} {
			if b, err := s.Draw(context.Background(), req); err == nil {
				t.Fatalf("%s: Draw(%+v) accepted (%d samples)", name, req, len(b.Samples))
			}
		}
	}
}

// TestDrawOneChainBitIdentical pins the seed rule the service relies on:
// a traced or diagnosed Draw of K = 1 runs chain 0 at ChainSeed(seed, 0),
// so it returns SampleNFrom(seed, 1)'s bytes — on both families,
// centralized and at 2 shards.
func TestDrawOneChainBitIdentical(t *testing.T) {
	const seed = 17
	for _, shards := range []int{0, 2} {
		for name, s := range drawFamilies(t, locsample.WithRounds(30), locsample.WithShards(shards)) {
			want, err := s.SampleNFrom(seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range []locsample.DrawRequest{
				{Seed: seed, K: 1, Trace: true},
				{Seed: seed, K: 1, Diagnose: true},
			} {
				b, err := s.Draw(context.Background(), req)
				if err != nil {
					t.Fatalf("%s shards=%d %+v: %v", name, shards, req, err)
				}
				if !reflect.DeepEqual(b.Samples, want.Samples) {
					t.Fatalf("%s shards=%d %+v: diverged from SampleNFrom(seed, 1)", name, shards, req)
				}
				if req.Trace && b.Trace == nil || req.Diagnose && b.Diagnosis == nil {
					t.Fatalf("%s shards=%d %+v: no trace or diagnosis returned", name, shards, req)
				}
			}
		}
	}
}

// TestSamplerSampleMatchesPackageSample: the compiled sampler's single-draw
// path is the package-level Sample, bit for bit and field for field.
func TestSamplerSampleMatchesPackageSample(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	model := locsample.NewColoring(g, 4*g.MaxDeg())
	opts := []locsample.Option{
		locsample.WithEpsilon(0.05),
		locsample.WithSeed(77),
	}
	s, err := locsample.NewSampler(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Sample()
	if err != nil {
		t.Fatal(err)
	}
	b, err := locsample.Sample(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.TheoryRounds != b.TheoryRounds {
		t.Fatalf("provenance differs: %+v vs %+v", a, b)
	}
	for v := range a.Sample {
		if a.Sample[v] != b.Sample[v] {
			t.Fatalf("samples differ at vertex %d", v)
		}
	}
	if s.Rounds() != a.Rounds || s.TheoryRounds() != a.TheoryRounds {
		t.Fatalf("engine reports rounds=%d theory=%d, sample says %d/%d",
			s.Rounds(), s.TheoryRounds(), a.Rounds, a.TheoryRounds)
	}
}

// TestSampleNValidity: every chain of a large batch is a proper sample of
// its model (exercises the worker pool under the race detector in CI).
func TestSampleNValidity(t *testing.T) {
	g := locsample.GridGraph(10, 10)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(model,
		locsample.WithSeed(1),
		locsample.WithRounds(60),
		locsample.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.SampleN(32)
	if err != nil {
		t.Fatal(err)
	}
	for i, sample := range batch.Samples {
		if !g.IsProperColoring(sample) {
			t.Fatalf("chain %d produced an improper coloring", i)
		}
	}
}

// TestSampleNEdgeCases: k = 0 is an empty batch, negative k is an error.
func TestSampleNEdgeCases(t *testing.T) {
	model := locsample.NewColoring(locsample.CycleGraph(6), 5)
	s, err := locsample.NewSampler(model, locsample.WithRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := s.SampleN(0)
	if err != nil || len(empty.Samples) != 0 {
		t.Fatalf("SampleN(0): %v, %d samples", err, len(empty.Samples))
	}
	if _, err := s.SampleN(-1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := locsample.NewSampler(model, locsample.WithInitial([]int{0})); err == nil {
		t.Fatal("short init accepted")
	}
}

// TestChainSeedSplitting: derived seeds are deterministic and pairwise
// distinct over a realistic batch range.
func TestChainSeedSplitting(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := locsample.ChainSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("chains %d and %d share a seed", i, j)
		}
		seen[s] = i
	}
	if locsample.ChainSeed(42, 0) != locsample.ChainSeed(42, 0) {
		t.Fatal("ChainSeed not deterministic")
	}
	if locsample.ChainSeed(42, 0) == locsample.ChainSeed(43, 0) {
		t.Fatal("master seed ignored")
	}
}

// TestSampleNFromReseedsWithoutRecompiling: SampleNFrom(seed, k) on one
// compiled sampler equals SampleN(k) on a sampler compiled with that seed —
// the serving path, where one compiled model answers many requests with
// per-request master seeds.
func TestSampleNFromReseedsWithoutRecompiling(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	shared, err := locsample.NewSampler(model, locsample.WithRounds(40), locsample.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 0, 1 << 60} {
		got, err := shared.SampleNFrom(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := locsample.NewSampler(model, locsample.WithRounds(40), locsample.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SampleN(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Samples {
			for v := range want.Samples[i] {
				if got.Samples[i][v] != want.Samples[i][v] {
					t.Fatalf("seed %d chain %d diverges at vertex %d", seed, i, v)
				}
			}
		}
	}
}

// TestSampleNFailsFast: when chains error (here: an algorithm with no
// distributed implementation), the batch reports the error and the abort
// flag keeps the pool from draining the whole queue first.
func TestSampleNFailsFast(t *testing.T) {
	// Modest k*n: the batch backing array is allocated up front, so a huge
	// k would reserve real memory before the first chain even fails.
	model := locsample.NewColoring(locsample.GridGraph(32, 32), 13)
	s, err := locsample.NewSampler(model,
		locsample.WithAlgorithm(locsample.Glauber),
		locsample.WithRounds(1000000),
		locsample.Distributed(),
		locsample.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.SampleN(1 << 13); err == nil {
		t.Fatal("doomed batch reported no error")
	}
	// Every chain fails instantly; without the abort flag the pool would
	// still claim (and re-resolve a greedy init for) all 2^13 chains. With
	// it the batch dies within a few claims.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("doomed batch took %v; abort flag not effective", elapsed)
	}
}
