package locsample_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"locsample"
)

func TestSampleCSPDominatingSet(t *testing.T) {
	g := locsample.GridGraph(4, 4)
	c := locsample.NewDominatingSet(g)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	// Centralized and distributed must agree exactly (same PRF keys).
	central, _, err := locsample.SampleCSP(g, c, init, 40, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	distr, stats, err := locsample.SampleCSP(g, c, init, 40, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	for v := range central {
		if central[v] != distr[v] {
			t.Fatalf("CSP modes disagree at vertex %d", v)
		}
	}
	if !g.IsDominatingSet(distr) {
		t.Fatal("sample is not a dominating set")
	}
	if stats.Rounds != 81 { // 2 rounds per iteration + halting round
		t.Fatalf("rounds = %d, want 81", stats.Rounds)
	}
}

func TestSampleCSPErrors(t *testing.T) {
	g := locsample.PathGraph(3)
	c := locsample.NewDominatingSet(g)
	good := []int{1, 1, 1}
	if _, _, err := locsample.SampleCSP(g, c, good, 0, 1, false); err == nil {
		t.Fatal("rounds=0 accepted")
	}
	if _, _, err := locsample.SampleCSP(g, c, []int{1}, 5, 1, false); err == nil {
		t.Fatal("short init accepted")
	}
	if _, _, err := locsample.SampleCSP(g, c, []int{0, 0, 0}, 5, 1, false); err == nil {
		t.Fatal("infeasible init accepted")
	}
}

func TestNewWeightedDominatingSet(t *testing.T) {
	g := locsample.CycleGraph(5)
	c := locsample.NewWeightedDominatingSet(g, 0.5)
	// Smaller sets are favoured: long-run mean size under λ=0.5 should be
	// below the λ=2 mean.
	meanSize := func(c *locsample.CSPModel, seed uint64) float64 {
		init := []int{1, 1, 1, 1, 1}
		total := 0
		const samples = 400
		for s := 0; s < samples; s++ {
			out, _, err := locsample.SampleCSP(g, c, init, 60, seed+uint64(s), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range out {
				total += x
			}
		}
		return float64(total) / samples
	}
	light := meanSize(c, 1)
	heavy := meanSize(locsample.NewWeightedDominatingSet(g, 2), 100000)
	if light >= heavy {
		t.Fatalf("λ=0.5 mean size %v should be below λ=2 mean %v", light, heavy)
	}
}

func TestNewCSPCustom(t *testing.T) {
	// Custom CSP through the public API: "not-all-equal" on a triangle's
	// vertices with q=2 (proper 2-colorings of a hyperedge).
	cons := []locsample.CSPConstraint{{
		Scope: []int32{0, 1, 2},
		F: func(v []int) float64 {
			if v[0] == v[1] && v[1] == v[2] {
				return 0
			}
			return 1
		},
	}}
	b := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	c, err := locsample.NewCSP(3, 2, b, cons)
	if err != nil {
		t.Fatal(err)
	}
	g := locsample.CompleteGraph(3)
	out, _, err := locsample.SampleCSP(g, c, []int{0, 1, 0}, 50, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == out[1] && out[1] == out[2] {
		t.Fatal("monochromatic output from NAE constraint")
	}
}

// TestSampleCSPHonorsSamplerOptions: the one-shot CSP entry points build
// their sampler from the fully resolved option set, so options beyond the
// round-runtime knobs reach it. WithMetrics must record the draws, and
// WithRemoteWorkers must place the shards on the (here unreachable)
// fleet, so the draw fails instead of silently running in-process.
func TestSampleCSPHonorsSamplerOptions(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	c := locsample.NewDominatingSet(g)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}

	reg := locsample.NewMetrics()
	if _, _, err := locsample.SampleCSP(g, c, init, 9, 5, false, locsample.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if _, err := locsample.SampleCSPN(g, c, init, 9, 5, 3, 0, locsample.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `locsample_draws_total{engine="csp"} 4`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, buf.String())
	}

	remote := []locsample.Option{
		locsample.WithShards(2),
		locsample.WithRemoteWorkers("127.0.0.1:1"),
		locsample.WithRetryPolicy(locsample.RetryPolicy{Attempts: 1, DialTimeout: 200 * time.Millisecond}),
	}
	if _, _, err := locsample.SampleCSP(g, c, init, 9, 5, false, remote...); err == nil {
		t.Fatal("SampleCSP with an unreachable remote fleet returned a sample")
	}
	if _, err := locsample.SampleCSPN(g, c, init, 9, 5, 2, 0, remote...); err == nil {
		t.Fatal("SampleCSPN with an unreachable remote fleet returned samples")
	}
}

// TestSampleHonorsSamplerOptions: the package-level Sample draws on a
// compiled sampler, so every NewSampler option reaches it. WithMetrics
// must record its draws, centralized and distributed alike. The remote
// case lives in TestRemoteMRFBitIdentical (internal/service), whose
// in-process worker fleet the shards can be placed on.
func TestSampleHonorsSamplerOptions(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	reg := locsample.NewMetrics()
	for _, extra := range [][]locsample.Option{nil, {locsample.Distributed()}} {
		opts := append([]locsample.Option{locsample.WithRounds(9), locsample.WithSeed(5), locsample.WithMetrics(reg)}, extra...)
		if _, err := locsample.Sample(m, opts...); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `locsample_draws_total{engine="mrf"} 2`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, buf.String())
	}
}
