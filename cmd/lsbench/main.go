// Command lsbench runs the repository's core performance suite — batch
// engine throughput, serving-layer draws, sharded single-chain latency at
// ≥10⁶ vertices, vertex-parallel round latency, and the CSP chain suite
// (dominating sets on grid/gnp, NAE hypergraph coloring; sequential,
// sharded, parallel, and the retired seed-era kernel as a reference), plus
// the observability suite (identical draws bare and with the metrics
// registry attached, reporting the instrumentation overhead) — and
// writes a machine-readable JSON report. The BENCH_PR*.json files at the
// repo root record the perf trajectory PR over PR; with -baseline the
// report also carries a per-benchmark speedup_vs field against an earlier
// report, so the trajectory is auditable by machines, and with -max-regress
// the run FAILS when a matched benchmark's vertices/sec regresses beyond
// the threshold on the same host class. CI runs the -quick variant as a
// regression smoke.
//
//	GOMAXPROCS=4 go run ./cmd/lsbench -out BENCH_PR5.json -baseline BENCH_PR4.json
//	go run ./cmd/lsbench -quick -baseline BENCH_PR5.json -max-regress 0.2 -out /tmp/bench.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"locsample"
	"locsample/internal/csp"
	"locsample/internal/rng"
	"locsample/internal/service"
	"locsample/internal/transport"
)

// Report is the JSON shape lsbench emits.
type Report struct {
	Version    string `json:"version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`
	// BestOf records the repetition count of the single-chain latency
	// suites (each entry keeps its fastest of BestOf runs).
	BestOf int    `json:"bestOf,omitempty"`
	Note   string `json:"note,omitempty"`
	// Baseline names the report speedup_vs is computed against.
	Baseline   string  `json:"baseline,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
	// Speedup maps each sharded workload to time(shards=1)/time(shards=k)
	// per shard count — the single-chain speedup the sharded runtime buys
	// on this machine. Expect ≈1/overhead-bound values on single-core
	// hosts (see CPUs) and >1 once GOMAXPROCS ≥ shards.
	Speedup map[string]map[string]float64 `json:"speedup,omitempty"`
}

// Entry is one benchmark result.
type Entry struct {
	Name   string `json:"name"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	Rounds int    `json:"rounds,omitempty"`
	K      int    `json:"k,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// Parallel is the vertex-parallel worker count per chain (0/absent:
	// sequential rounds).
	Parallel int `json:"parallel,omitempty"`
	// SoAWidth is the batch-engine lane width of a Batch/BatchSmoke entry
	// (1: the per-chain AoS reference path).
	SoAWidth int `json:"soaWidth,omitempty"`
	// CPUs/GOMAXPROCS record the host class per entry, so entries stay
	// self-describing when reports are merged or compared across machines.
	CPUs        int     `json:"cpus"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// VerticesPerSec is vertex-updates per second: n·rounds·k / seconds.
	VerticesPerSec float64 `json:"verticesPerSec,omitempty"`
	// ChainsPerSec / NsPerChainRound describe the batch suite: whole
	// chains delivered per second and the per-chain cost of one round —
	// the two numbers the SoA width sweep exists to compare.
	ChainsPerSec    float64 `json:"chainsPerSec,omitempty"`
	NsPerChainRound float64 `json:"nsPerChainRound,omitempty"`
	// FramesPerSec / WireBytesPerRound describe the transport suite:
	// boundary frames moved per second and bytes a lockstep round puts on
	// the wire (0 for the in-process Chan fabric — nothing is encoded).
	FramesPerSec      float64 `json:"framesPerSec,omitempty"`
	WireBytesPerRound float64 `json:"wireBytesPerRound,omitempty"`
	// SpeedupVs is baseline-ns/op ÷ this-ns/op for the same-named benchmark
	// in the -baseline report (same host class only; absent otherwise).
	SpeedupVs float64 `json:"speedup_vs,omitempty"`
	// Underprovisioned marks parallel/sharded entries whose worker count
	// exceeds GOMAXPROCS: the workers time-sliced, so the number measures
	// scheduling overhead, not parallel speedup.
	Underprovisioned bool `json:"underprovisioned,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_PR10.json", "output JSON path")
		quick      = flag.Bool("quick", false, "small sizes for CI smoke runs")
		baseline   = flag.String("baseline", "", "earlier report to compute per-benchmark speedup_vs against")
		maxRegress = flag.Float64("max-regress", 0, "fail if a matched benchmark's vertices/sec regresses more than this fraction vs -baseline on the same host class (0 = report only)")
	)
	flag.Parse()

	rep := &Report{
		Version:    "locsample-bench/v1",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		BestOf:     3,
		Speedup:    map[string]map[string]float64{},
	}
	if cores := min(rep.CPUs, rep.GOMAXPROCS); cores < 4 {
		rep.Note = fmt.Sprintf("%d usable cores (cpus=%d, gomaxprocs=%d): shard workers and parallel-round goroutines time-slice, so parallel speedups are bounded by 1; kernel (shards=1, sequential) numbers are unaffected. Rerun on a multi-core host for the parallel numbers",
			cores, rep.CPUs, rep.GOMAXPROCS)
	}

	benchSampleN(rep, *quick)
	benchService(rep)
	batchSuite(rep, *quick)
	batchSmoke(rep)
	shardSuite(rep, *quick)
	parallelSuite(rep, *quick)
	cspSuite(rep, *quick)
	cspSmoke(rep)
	transportSuite(rep, *quick)
	obsSuite(rep, *quick)
	diagSuite(rep, *quick)

	regressions := applyBaseline(rep, *baseline, *maxRegress)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lsbench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "lsbench: REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
}

// applyBaseline loads the baseline report, stamps speedup_vs on every
// same-named benchmark, and — when the host class matches and maxRegress is
// positive — returns the list of benchmarks whose vertices/sec fell more
// than the allowed fraction.
func applyBaseline(rep *Report, path string, maxRegress float64) []string {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("baseline: %w", err))
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("baseline %s: %w", path, err))
	}
	rep.Baseline = path
	// Comparing a 1-CPU container run against a 32-way CI runner would
	// report fantasy speedups (and spurious regressions), so cross-class
	// comparisons are skipped entirely. Quick and full runs need no such
	// guard: benchmark names encode their workload sizes, so name matching
	// below compares identical workloads only (e.g. the serving benchmark,
	// which both modes run at the same size).
	if base.CPUs != rep.CPUs || base.GOMAXPROCS != rep.GOMAXPROCS {
		note := fmt.Sprintf("baseline %s is a different host class (cpus=%d gomaxprocs=%d vs cpus=%d gomaxprocs=%d); speedup_vs and regression checks skipped",
			path, base.CPUs, base.GOMAXPROCS, rep.CPUs, rep.GOMAXPROCS)
		if rep.Note != "" {
			note = rep.Note + ". " + note
		}
		rep.Note = note
		return nil
	}
	byName := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		byName[e.Name] = e
	}
	var regressions []string
	for i := range rep.Benchmarks {
		e := &rep.Benchmarks[i]
		b, ok := byName[e.Name]
		if !ok || b.NsPerOp <= 0 || e.NsPerOp <= 0 {
			continue
		}
		e.SpeedupVs = b.NsPerOp / e.NsPerOp
		if maxRegress > 0 && e.SpeedupVs < 1-maxRegress {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.2fx vs %s (%.0f -> %.0f ns/op) exceeds the %.0f%% budget",
				e.Name, e.SpeedupVs, path, b.NsPerOp, e.NsPerOp, maxRegress*100))
		}
	}
	return regressions
}

// benchSampleN measures batch-engine throughput: 64 chains of a grid
// coloring over the worker pool, fixed round budget.
func benchSampleN(rep *Report, quick bool) {
	side := 64
	if quick {
		side = 16
	}
	const k, rounds = 64, 24
	g := locsample.GridGraph(side, side)
	m := locsample.NewColoring(g, 13)
	s, err := locsample.NewSampler(m, locsample.WithSeed(1), locsample.WithRounds(rounds))
	if err != nil {
		fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SampleNFrom(uint64(i), k); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.add(fmt.Sprintf("SampleN/grid%dx%d-coloring-k%d", side, side, k),
		g.N(), g.M(), rounds, k, 0, 0, res)
}

// benchService measures a served draw end to end through the registry
// (compile cached, per-request seeds), mirroring BenchmarkServiceSample.
func benchService(rep *Report) {
	reg := service.NewRegistry(service.Config{})
	spec := `{
		"version": "locsample/v1",
		"graph": {"family": "grid", "rows": 16, "cols": 16},
		"model": {"kind": "coloring", "q": 12}
	}`
	mdl, _, err := reg.Register([]byte(spec))
	if err != nil {
		fatal(err)
	}
	const k = 8
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Draw(mdl, service.DrawOptions{K: k, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.add("ServiceSample/grid16x16-coloring-k8", 256, 480, 0, k, 0, 0, res)
}

// batchSuite measures multi-chain batch throughput across the SoA width
// sweep: the same 64-chain draw at width 1 (the per-chain AoS reference)
// and at 8, 16, 32, and 64 lanes per block, over the tentpole grid and
// G(n,p) colorings and the dominating-set CSP. Entries report chains/sec
// and per-chain ns/round; the per-workload speedup map records each
// width's throughput against the AoS entry — the one-CSR-walk-serves-W-
// chains win this report exists to audit. Chain i is bit-identical at
// every width (CI-gated), so the sweep compares cost, never output.
func batchSuite(rep *Report, quick bool) {
	const k = 64
	workloads, rounds := benchWorkloads(quick)
	type batchRun struct {
		name string
		n, m int
		mk   func(width int) func(b *testing.B)
	}
	var runs []batchRun
	for _, wl := range workloads {
		wl := wl
		runs = append(runs, batchRun{wl.name, wl.g.N(), wl.g.M(), func(width int) func(b *testing.B) {
			s, err := locsample.NewSampler(wl.m,
				locsample.WithSeed(3), locsample.WithRounds(rounds),
				locsample.WithBatchWidth(width))
			if err != nil {
				fatal(err)
			}
			// Warm the block/chain pools: these ops run at b.N=1, so an
			// unwarmed first draw would bill gigabytes of block
			// construction and first-touch page faults to the measurement.
			if _, err := s.SampleNFrom(0, k); err != nil {
				fatal(err)
			}
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.SampleNFrom(uint64(i), k); err != nil {
						b.Fatal(err)
					}
				}
			}
		}})
	}
	cspSide := 512
	if quick {
		cspSide = 48
	}
	cspGrid := locsample.GridGraph(cspSide, cspSide)
	dom := locsample.NewDominatingSet(cspGrid)
	ones := make([]int, cspGrid.N())
	for i := range ones {
		ones[i] = 1
	}
	runs = append(runs, batchRun{
		fmt.Sprintf("domset-grid%dx%d", cspSide, cspSide), cspGrid.N(), len(dom.Cons),
		func(width int) func(b *testing.B) {
			s, err := locsample.NewCSPSampler(cspGrid, dom, ones,
				locsample.WithSeed(3), locsample.WithRounds(rounds),
				locsample.WithBatchWidth(width))
			if err != nil {
				fatal(err)
			}
			if _, err := s.SampleNFrom(0, k); err != nil {
				fatal(err)
			}
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.SampleNFrom(uint64(i), k); err != nil {
						b.Fatal(err)
					}
				}
			}
		}})
	for _, r := range runs {
		base := 0.0
		speed := map[string]float64{}
		for _, width := range []int{1, 8, 16, 32, 64} {
			res := testing.Benchmark(r.mk(width))
			rep.addBatch(fmt.Sprintf("Batch/%s/soa=%d", r.name, width),
				r.n, r.m, rounds, k, width, res)
			ns := float64(res.NsPerOp())
			if width == 1 {
				base = ns
			} else if ns > 0 && base > 0 {
				speed[fmt.Sprintf("soa%d", width)] = base / ns
			}
		}
		rep.Speedup["batch/"+r.name] = speed
	}
}

// batchSmoke measures fixed-size batch draws that run identically in full
// and quick reports — the Batch entries CI's quick run matches by name
// against the checked-in full-run baseline, so >20% regressions on either
// side of the AoS/SoA split fail the smoke for both kernel families.
func batchSmoke(rep *Report) {
	const k, rounds = 64, 8
	grid := locsample.GridGraph(48, 48)
	coloring := locsample.NewColoring(grid, 13)
	dom := locsample.NewDominatingSet(grid)
	ones := make([]int, grid.N())
	for i := range ones {
		ones[i] = 1
	}
	for _, width := range []int{1, 16} {
		s, err := locsample.NewSampler(coloring,
			locsample.WithSeed(3), locsample.WithRounds(rounds),
			locsample.WithBatchWidth(width))
		if err != nil {
			fatal(err)
		}
		if _, err := s.SampleNFrom(0, k); err != nil {
			fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.SampleNFrom(uint64(i), k); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.addBatch(fmt.Sprintf("BatchSmoke/grid48x48-coloring-k%d/soa=%d", k, width),
			grid.N(), grid.M(), rounds, k, width, res)
		cs, err := locsample.NewCSPSampler(grid, dom, ones,
			locsample.WithSeed(3), locsample.WithRounds(rounds),
			locsample.WithBatchWidth(width))
		if err != nil {
			fatal(err)
		}
		if _, err := cs.SampleNFrom(0, k); err != nil {
			fatal(err)
		}
		res = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cs.SampleNFrom(uint64(i), k); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.addBatch(fmt.Sprintf("BatchSmoke/domset-grid48x48-k%d/soa=%d", k, width),
			grid.N(), len(dom.Cons), rounds, k, width, res)
	}
}

// benchWorkloads returns the tentpole single-chain workloads: ≥10⁶-vertex
// grid and G(n,p) colorings (full mode) or CI-sized ones (quick).
func benchWorkloads(quick bool) (workloads []struct {
	name string
	g    *locsample.Graph
	m    *locsample.Model
}, rounds int) {
	gridSide := 1024 // 1024² = 1,048,576 vertices
	gnpN := 1 << 20
	rounds = 8
	if quick {
		gridSide, gnpN, rounds = 128, 1<<14, 4
	}
	grid := locsample.GridGraph(gridSide, gridSide)
	gnp := locsample.SparseGnpGraph(gnpN, 8/float64(gnpN), 7)
	workloads = []struct {
		name string
		g    *locsample.Graph
		m    *locsample.Model
	}{
		{fmt.Sprintf("grid%dx%d-coloring", gridSide, gridSide), grid, locsample.NewColoring(grid, 13)},
		{fmt.Sprintf("gnp%d-coloring", gnpN), gnp, locsample.NewColoring(gnp, 3*gnp.MaxDeg()+1)},
	}
	return workloads, rounds
}

// benchmarkBest runs fn through testing.Benchmark n times and keeps the
// fastest result. The single-chain latency suites run few iterations per
// measurement (hundreds of milliseconds per op), so one noisy-neighbor
// stall in a shared container can swing a single run by ±25%; the best of
// three is a stable estimator of the workload's actual cost.
func benchmarkBest(n int, fn func(b *testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < n; i++ {
		res := testing.Benchmark(fn)
		if i == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	return best
}

// benchSingleChain times single draws through a compiled sampler (best of
// three runs).
func benchSingleChain(s *locsample.Sampler) testing.BenchmarkResult {
	return benchmarkBest(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SampleNFrom(uint64(i), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// shardSuite measures single-chain latency at 1, 2, and 4 shards on the
// tentpole workloads and records the per-workload speedups.
func shardSuite(rep *Report, quick bool) {
	workloads, rounds := benchWorkloads(quick)
	for _, wl := range workloads {
		base := 0.0
		speed := map[string]float64{}
		for _, shards := range []int{1, 2, 4} {
			opts := []locsample.Option{locsample.WithSeed(3), locsample.WithRounds(rounds)}
			if shards > 1 {
				opts = append(opts, locsample.WithShards(shards))
			}
			s, err := locsample.NewSampler(wl.m, opts...)
			if err != nil {
				fatal(err)
			}
			res := benchSingleChain(s)
			rep.add(fmt.Sprintf("Cluster/%s/shards=%d", wl.name, shards),
				wl.g.N(), wl.g.M(), rounds, 1, shards, 0, res)
			ns := float64(res.NsPerOp())
			if shards == 1 {
				base = ns
			} else if ns > 0 {
				speed[fmt.Sprint(shards)] = base / ns
			}
		}
		rep.Speedup[wl.name] = speed
	}
}

// parallelSuite measures single-chain latency under vertex-parallel rounds
// (WithParallelRounds) at 2 and 4 workers on the same tentpole workloads —
// the shards=1 entries of shardSuite are the sequential baselines.
func parallelSuite(rep *Report, quick bool) {
	workloads, rounds := benchWorkloads(quick)
	for _, wl := range workloads {
		for _, par := range []int{2, 4} {
			s, err := locsample.NewSampler(wl.m,
				locsample.WithSeed(3), locsample.WithRounds(rounds),
				locsample.WithParallelRounds(par))
			if err != nil {
				fatal(err)
			}
			res := benchSingleChain(s)
			rep.add(fmt.Sprintf("Chain/%s/parallel=%d", wl.name, par),
				wl.g.N(), wl.g.M(), rounds, 1, 0, par, res)
		}
	}
}

// refCSPMarginalInto is the seed-era closure-path conditional marginal
// (per-call gather buffer, Constraint.F calls), kept here so the report
// carries an auditable before/after for the compiled CSP kernels.
func refCSPMarginalInto(c *csp.CSP, v int, sigma []int, out []float64) bool {
	saved := sigma[v]
	defer func() { sigma[v] = saved }()
	buf := make([]int, 8)
	total := 0.0
	for a := 0; a < c.Q; a++ {
		w := c.VertexB[v][a]
		if w > 0 {
			sigma[v] = a
			for _, ci := range c.ConstraintsOf(v) {
				con := &c.Cons[ci]
				if cap(buf) < len(con.Scope) {
					buf = make([]int, len(con.Scope))
				}
				vals := buf[:len(con.Scope)]
				for i, u := range con.Scope {
					vals[i] = sigma[u]
				}
				w *= con.F(vals)
				if w == 0 {
					break
				}
			}
		}
		out[a] = w
		total += w
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

// refCSPLubyGlauberRound is the seed-era hypergraph LubyGlauber round: per-
// round β allocation, full 7-mix PRF calls per variate, closure marginals.
func refCSPLubyGlauberRound(c *csp.CSP, x []int, seed uint64, round int, marg []float64) {
	n := c.N
	beta := make([]float64, n)
	for v := 0; v < n; v++ {
		beta[v] = rng.PRFFloat64(seed, csp.TagBeta, uint64(v), uint64(round))
	}
	for v := 0; v < n; v++ {
		isMax := true
		for _, u := range c.Neighborhood(v) {
			if beta[u] >= beta[v] {
				isMax = false
				break
			}
		}
		if !isMax {
			continue
		}
		if refCSPMarginalInto(c, v, x, marg) {
			u := rng.PRFFloat64(seed, csp.TagUpdate, uint64(v), uint64(round))
			x[v] = rng.CategoricalU(marg, u)
		}
	}
}

// cspWorkloads returns the CSP chain workloads: dominating sets on a grid
// and a sparse G(n,p) (seed picked so the max degree stays within the
// arity-normalization cap), and NAE hypergraph 3-coloring over consecutive
// triples.
func cspWorkloads(quick bool) (workloads []struct {
	name string
	g    *locsample.Graph
	c    *locsample.CSPModel
	init []int
}, rounds int) {
	gridSide := 512 // 262,144 vertices
	gnpN := 1 << 18
	naeN := 1 << 18
	rounds = 8
	if quick {
		gridSide, gnpN, naeN, rounds = 48, 1<<12, 1<<12, 4
	}
	grid := locsample.GridGraph(gridSide, gridSide)
	gnp := locsample.SparseGnpGraph(gnpN, 2/float64(gnpN), 1)
	ones := func(n int) []int {
		x := make([]int, n)
		for i := range x {
			x[i] = 1
		}
		return x
	}
	scopes := make([][]int32, naeN)
	for i := range scopes {
		scopes[i] = []int32{int32(i), int32((i + 1) % naeN), int32((i + 2) % naeN)}
	}
	nae := csp.NotAllEqual(naeN, 3, scopes)
	naeInit := make([]int, naeN)
	for i := range naeInit {
		naeInit[i] = i % 3
	}
	workloads = []struct {
		name string
		g    *locsample.Graph
		c    *locsample.CSPModel
		init []int
	}{
		{fmt.Sprintf("domset-grid%dx%d", gridSide, gridSide), grid, locsample.NewDominatingSet(grid), ones(grid.N())},
		{fmt.Sprintf("domset-gnp%d", gnpN), gnp, locsample.NewDominatingSet(gnp), ones(gnp.N())},
		{fmt.Sprintf("nae%d-q3", naeN), nil, nae, naeInit},
	}
	return workloads, rounds
}

// cspSuite measures the CSP chain: the retired seed-era kernel (ref), the
// compiled sequential kernel (shards=1), sharded draws at 2 and 4 shards,
// and vertex-parallel rounds at 2 and 4 workers. Per-workload speedups
// record shard scaling plus kernel_vs_ref — the compiled-kernel win this
// report exists to audit.
func cspSuite(rep *Report, quick bool) {
	workloads, rounds := cspWorkloads(quick)
	for _, wl := range workloads {
		n := wl.c.N
		speed := map[string]float64{}

		res := benchmarkBest(3, func(b *testing.B) {
			x := make([]int, n)
			marg := make([]float64, wl.c.Q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, wl.init)
				for r := 0; r < rounds; r++ {
					refCSPLubyGlauberRound(wl.c, x, uint64(i), r, marg)
				}
			}
		})
		rep.add(fmt.Sprintf("CSPChain/%s/ref-seed-kernel", wl.name), n, len(wl.c.Cons), rounds, 1, 0, 0, res)
		refNs := float64(res.NsPerOp())

		base := 0.0
		for _, shards := range []int{1, 2, 4} {
			opts := []locsample.Option{locsample.WithSeed(3), locsample.WithRounds(rounds)}
			if shards > 1 {
				opts = append(opts, locsample.WithShards(shards))
			}
			s, err := locsample.NewCSPSampler(wl.g, wl.c, wl.init, opts...)
			if err != nil {
				fatal(err)
			}
			res := benchmarkBest(3, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.SampleNFrom(uint64(i), 1); err != nil {
						b.Fatal(err)
					}
				}
			})
			rep.add(fmt.Sprintf("CSPChain/%s/shards=%d", wl.name, shards), n, len(wl.c.Cons), rounds, 1, shards, 0, res)
			ns := float64(res.NsPerOp())
			if shards == 1 {
				base = ns
				if ns > 0 {
					speed["kernel_vs_ref"] = refNs / ns
				}
			} else if ns > 0 {
				speed[fmt.Sprint(shards)] = base / ns
			}
		}
		for _, par := range []int{2, 4} {
			s, err := locsample.NewCSPSampler(wl.g, wl.c, wl.init,
				locsample.WithSeed(3), locsample.WithRounds(rounds), locsample.WithParallelRounds(par))
			if err != nil {
				fatal(err)
			}
			res := benchmarkBest(3, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.SampleNFrom(uint64(i), 1); err != nil {
						b.Fatal(err)
					}
				}
			})
			rep.add(fmt.Sprintf("CSPChain/%s/parallel=%d", wl.name, par), n, len(wl.c.Cons), rounds, 1, 0, par, res)
		}
		rep.Speedup["csp/"+wl.name] = speed
	}
}

// cspSmoke measures fixed-size CSP draws that run identically in full and
// quick reports — the entries CI's quick run matches by name against the
// checked-in full-run baseline, so >20% CSP regressions fail the smoke the
// way ServiceSample already gates the MRF serving path.
func cspSmoke(rep *Report) {
	const rounds = 8
	grid := locsample.GridGraph(48, 48)
	dom := locsample.NewDominatingSet(grid)
	ones := make([]int, grid.N())
	for i := range ones {
		ones[i] = 1
	}
	const naeN = 4096
	scopes := make([][]int32, naeN)
	for i := range scopes {
		scopes[i] = []int32{int32(i), int32((i + 1) % naeN), int32((i + 2) % naeN)}
	}
	nae := csp.NotAllEqual(naeN, 3, scopes)
	naeInit := make([]int, naeN)
	for i := range naeInit {
		naeInit[i] = i % 3
	}
	for _, wl := range []struct {
		name string
		g    *locsample.Graph
		c    *locsample.CSPModel
		init []int
	}{
		{"domset-grid48x48", grid, dom, ones},
		{"nae4096-q3", nil, nae, naeInit},
	} {
		s, err := locsample.NewCSPSampler(wl.g, wl.c, wl.init,
			locsample.WithSeed(3), locsample.WithRounds(rounds))
		if err != nil {
			fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.SampleNFrom(uint64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.add("CSPSmoke/"+wl.name, wl.c.N, len(wl.c.Cons), rounds, 1, 0, 0, res)
	}
}

// transportSuite measures the boundary fabrics a sharded round runs on:
// one lockstep round of a two-shard exchange (a frame each way), over the
// in-process Chan transport and over the cross-process TCP transport on
// loopback. Reported as frames/sec plus, for TCP, the encoded bytes each
// round puts on the wire.
func transportSuite(rep *Report, quick bool) {
	states := 4096
	if quick {
		states = 512
	}
	payload := make([]int, states)
	for i := range payload {
		payload[i] = i & 7
	}
	neighbors := [][]int{{1}, {0}}
	const timeout = 10 * time.Second

	// One op = one lockstep round: shard 0 and shard 1 each send their
	// boundary frame and receive the peer's.
	roundTrip := func(b *testing.B, tr transport.Transport) {
		b.Helper()
		for r := 0; r < b.N; r++ {
			if err := tr.Send(0, 1, r, payload); err != nil {
				b.Fatal(err)
			}
			if err := tr.Send(1, 0, r, payload); err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Recv(0, 1, r, states); err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Recv(1, 0, r, states); err != nil {
				b.Fatal(err)
			}
		}
	}
	addFabric := func(name string, res testing.BenchmarkResult, wireBytes float64) {
		rep.add(name, states, 0, 0, 0, 2, 0, res)
		e := &rep.Benchmarks[len(rep.Benchmarks)-1]
		if e.NsPerOp > 0 {
			e.FramesPerSec = 2 / (e.NsPerOp / 1e9)
		}
		e.WireBytesPerRound = wireBytes
	}

	ch := transport.NewChan(neighbors, timeout)
	res := benchmarkBest(rep.BestOf, func(b *testing.B) {
		b.ReportAllocs()
		roundTrip(b, ch)
	})
	ch.Close()
	addFabric(fmt.Sprintf("Transport/Chan/states=%d", states), res, 0)

	tcpA, tcpB, cleanup, err := loopbackMesh(neighbors, timeout)
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	var rounds int
	res = benchmarkBest(rep.BestOf, func(b *testing.B) {
		b.ReportAllocs()
		rounds += b.N
		for r := 0; r < b.N; r++ {
			if err := tcpA.Send(0, 1, r, payload); err != nil {
				b.Fatal(err)
			}
			if err := tcpB.Send(1, 0, r, payload); err != nil {
				b.Fatal(err)
			}
			if _, err := tcpB.Recv(0, 1, r, states); err != nil {
				b.Fatal(err)
			}
			if _, err := tcpA.Recv(1, 0, r, states); err != nil {
				b.Fatal(err)
			}
		}
	})
	wire := float64(tcpA.Stats().BytesSent+tcpB.Stats().BytesSent) / float64(rounds)
	addFabric(fmt.Sprintf("Transport/TCPLoopback/states=%d", states), res, wire)
}

// loopbackMesh stands up the two-process TCP mesh the transport suite
// benchmarks: each side gets its own listener, B dials A (the lower
// index), and A's accept loop attaches the inbound half — the same
// handshake the lsharded worker runs.
func loopbackMesh(neighbors [][]int, timeout time.Duration) (a, b *transport.TCP, cleanup func(), err error) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return nil, nil, nil, err
	}
	mk := func(self int) (*transport.TCP, error) {
		return transport.NewTCP(transport.TCPConfig{
			JobID:       1,
			Self:        self,
			Addrs:       []string{lnA.Addr().String(), lnB.Addr().String()},
			Assign:      []int{0, 1},
			Neighbors:   neighbors,
			DialTimeout: timeout,
			RecvTimeout: timeout,
		})
	}
	if a, err = mk(0); err != nil {
		lnA.Close()
		lnB.Close()
		return nil, nil, nil, err
	}
	if b, err = mk(1); err != nil {
		a.Close()
		lnA.Close()
		lnB.Close()
		return nil, nil, nil, err
	}
	accepted := make(chan error, 1)
	go func() {
		c, err := lnA.Accept()
		if err != nil {
			accepted <- err
			return
		}
		if _, err := transport.ReadMagic(c, timeout); err != nil {
			accepted <- err
			return
		}
		_, from, err := transport.ReadPeerHello(c, timeout)
		if err != nil {
			accepted <- err
			return
		}
		c.SetReadDeadline(time.Time{})
		accepted <- a.AddConn(from, c)
	}()
	cleanup = func() {
		a.Close()
		b.Close()
		lnA.Close()
		lnB.Close()
	}
	if err := b.Dial(); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	if err := <-accepted; err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	if err := a.Ready(timeout); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	if err := b.Ready(timeout); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return a, b, cleanup, nil
}

// obsSuite measures the observability tax: the same single-chain rounds
// drawn bare and with a metrics registry attached (WithMetrics wires the
// per-round atomic counters and the draw-latency histogram into the hot
// path). The per-workload speedup map records metrics_overhead =
// instrumented/bare - 1; the round hooks are a nil-check plus a handful
// of atomics per round, so the tax should stay within the noise floor
// (≤1% on multi-round draws).
func obsSuite(rep *Report, quick bool) {
	side := 256
	rounds := 16
	if quick {
		side, rounds = 64, 8
	}
	grid := locsample.GridGraph(side, side)
	coloring := locsample.NewColoring(grid, 13)
	dom := locsample.NewDominatingSet(grid)
	ones := make([]int, grid.N())
	for i := range ones {
		ones[i] = 1
	}

	mrfSampler := func(extra ...locsample.Option) func(b *testing.B) {
		opts := append([]locsample.Option{
			locsample.WithSeed(3), locsample.WithRounds(rounds)}, extra...)
		s, err := locsample.NewSampler(coloring, opts...)
		if err != nil {
			fatal(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.SampleNFrom(uint64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	cspSampler := func(extra ...locsample.Option) func(b *testing.B) {
		opts := append([]locsample.Option{
			locsample.WithSeed(3), locsample.WithRounds(rounds)}, extra...)
		s, err := locsample.NewCSPSampler(grid, dom, ones, opts...)
		if err != nil {
			fatal(err)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.SampleNFrom(uint64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	for _, suite := range []struct {
		name string
		mk   func(extra ...locsample.Option) func(b *testing.B)
	}{
		{fmt.Sprintf("grid%dx%d-coloring", side, side), mrfSampler},
		{fmt.Sprintf("domset-grid%dx%d", side, side), cspSampler},
	} {
		bareFn := suite.mk()
		instrFn := suite.mk(locsample.WithMetrics(locsample.NewMetrics()))
		// Bare and instrumented runs interleave so noisy-neighbor drift
		// on a shared host hits both sides; each keeps its best rep.
		var bare, instr testing.BenchmarkResult
		for i := 0; i < 5; i++ {
			if b := testing.Benchmark(bareFn); i == 0 || b.NsPerOp() < bare.NsPerOp() {
				bare = b
			}
			if m := testing.Benchmark(instrFn); i == 0 || m.NsPerOp() < instr.NsPerOp() {
				instr = m
			}
		}
		rep.add("Obs/"+suite.name+"/bare", grid.N(), grid.M(), rounds, 1, 0, 0, bare)
		rep.add("Obs/"+suite.name+"/metrics", grid.N(), grid.M(), rounds, 1, 0, 0, instr)
		if bareNs := float64(bare.NsPerOp()); bareNs > 0 {
			rep.Speedup["obs/"+suite.name] = map[string]float64{
				"metrics_overhead": float64(instr.NsPerOp())/bareNs - 1,
			}
		}
	}
}

// diagSuite measures the mixing-diagnostics path on proved-regime
// colorings (q = 16 > (2+√2)Δ at grid Δ = 4, where the paper's coupling
// argument holds): a coupled diagnosed draw per seed at the
// coupling-measured round budget. The speedup map entry diag/<name>
// records measured_rounds against theory_rounds — the empirical
// measured-vs-theory budget gap this suite exists to track — plus their
// ratio; the benchmark entry itself carries the diagnosed draw's cost
// at the measured budget.
func diagSuite(rep *Report, quick bool) {
	sides := []int{32, 64}
	if quick {
		sides = []int{16}
	}
	for _, side := range sides {
		g := locsample.GridGraph(side, side)
		m := locsample.NewColoring(g, 16)
		s, err := locsample.NewSampler(m, locsample.WithSeed(3), locsample.WithRoundsAuto())
		if err != nil {
			fatal(err)
		}
		measured, theory := s.Rounds(), s.CapRounds()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Draw(context.Background(), locsample.DrawRequest{Seed: uint64(i), Diagnose: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		name := fmt.Sprintf("grid%dx%d-coloring-q16", side, side)
		rep.add("Diag/"+name+"/diagnosed-draw", g.N(), g.M(), measured, 1, 0, 0, res)
		budgets := map[string]float64{
			"measured_rounds": float64(measured),
			"theory_rounds":   float64(theory),
		}
		if theory > 0 {
			budgets["budget_ratio"] = float64(measured) / float64(theory)
		}
		rep.Speedup["diag/"+name] = budgets
	}
}

// add appends one benchmark result with derived vertex-update throughput.
func (r *Report) add(name string, n, m, rounds, k, shards, parallel int, res testing.BenchmarkResult) {
	e := Entry{
		Name:        name,
		N:           n,
		M:           m,
		Rounds:      rounds,
		K:           k,
		Shards:      shards,
		Parallel:    parallel,
		CPUs:        r.CPUs,
		GOMAXPROCS:  r.GOMAXPROCS,
		Iterations:  res.N,
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if rounds > 0 && e.NsPerOp > 0 {
		e.VerticesPerSec = float64(n) * float64(rounds) * float64(k) / (e.NsPerOp / 1e9)
	}
	if (shards > 1 && r.GOMAXPROCS < shards) || (parallel > 1 && r.GOMAXPROCS < parallel) {
		e.Underprovisioned = true
	}
	fmt.Fprintf(os.Stderr, "lsbench: %-48s %12.0f ns/op  %6d allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
	r.Benchmarks = append(r.Benchmarks, e)
}

// addBatch appends a batch-suite entry: add plus the lane width and the
// chains/sec and per-chain ns/round derived rates.
func (r *Report) addBatch(name string, n, m, rounds, k, width int, res testing.BenchmarkResult) {
	r.add(name, n, m, rounds, k, 0, 0, res)
	e := &r.Benchmarks[len(r.Benchmarks)-1]
	e.SoAWidth = width
	if e.NsPerOp > 0 {
		e.ChainsPerSec = float64(k) / (e.NsPerOp / 1e9)
		e.NsPerChainRound = e.NsPerOp / (float64(k) * float64(rounds))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsbench:", err)
	os.Exit(1)
}
