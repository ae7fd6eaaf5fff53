// Command lsample draws samples from a Gibbs distribution with the paper's
// distributed algorithms and reports round/message statistics. With
// -count > 1 it uses the batch engine: the model is compiled once and the
// chains (MRF and CSP alike) are spread over a worker pool. With
// -shards > 1 every single chain additionally runs shard-parallel on the
// cluster runtime — bit-identical output, one chain over many cores; with
// -parallel > 1 each chain's round phases instead fan over goroutines
// (also bit-identical, no partition plan).
//
// Workloads come either from the built-in generator flags or, with
// -model-file, from a versioned JSON spec — the same wire format
// cmd/lserved serves, so any servable model is samplable locally and vice
// versa. -json switches the report to machine-readable JSON.
//
// Examples:
//
//	lsample -graph grid -rows 16 -cols 16 -model coloring -q 12 -alg localmetropolis -distributed
//	lsample -graph regular -n 100 -d 6 -model hardcore -lambda 0.5 -alg lubyglauber -eps 0.01
//	lsample -graph cycle -n 64 -model ising -beta 1.4 -alg glauber -rounds 5000
//	lsample -graph grid -rows 64 -cols 64 -model coloring -count 256 -workers 8
//	lsample -graph grid -rows 1024 -cols 1024 -model coloring -shards 4 -rounds 24
//	lsample -graph complete -n 40 -model domset -lambda 0.8 -count 64 -rounds 300
//	lsample -graph grid -rows 512 -cols 512 -model domset -shards 4 -rounds 100
//	lsample -graph grid -rows 512 -cols 512 -model domset -parallel 4 -rounds 100
//	lsample -model-file spec.json -count 16 -seed 7 -json
//	lsample -graph grid -rows 64 -cols 64 -model coloring -shards 4 -rounds 50 -trace out.json
//	lsample -graph grid -rows 16 -cols 16 -model coloring -q 16 -diag
//	lsample -graph grid -rows 16 -cols 16 -model coloring -q 16 -rounds auto -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"locsample"
)

var (
	graphKind = flag.String("graph", "grid", "graph family: path|cycle|grid|torus|complete|star|hypercube|regular|gnp")
	n         = flag.Int("n", 64, "vertex count (path/cycle/complete/star/regular/gnp)")
	rows      = flag.Int("rows", 8, "grid/torus rows")
	cols      = flag.Int("cols", 8, "grid/torus cols")
	dim       = flag.Int("dim", 6, "hypercube dimension")
	d         = flag.Int("d", 4, "regular-graph degree")
	p         = flag.Float64("p", 0.1, "G(n,p) edge probability")
	model     = flag.String("model", "coloring", "model: coloring|hardcore|is|vc|ising|potts|domset")
	q         = flag.Int("q", 0, "colors / Potts states (default 3Δ+1 for coloring)")
	lambda    = flag.Float64("lambda", 1, "hardcore fugacity")
	beta      = flag.Float64("beta", 1.5, "Ising/Potts edge parameter")
	field     = flag.Float64("h", 1, "Ising field")
	algName   = flag.String("alg", "localmetropolis", "algorithm: glauber|lubyglauber|localmetropolis|scan|chromatic")
	eps       = flag.Float64("eps", 0.05, "total-variation target for the automatic round budget")
	roundsStr = flag.String("rounds", "", "round budget: an integer override, \"auto\" to measure it by coupling coalescence (the theory budget caps the search), or empty for theory")
	seed      = flag.Uint64("seed", 1, "random seed")
	distr     = flag.Bool("distributed", false, "run on the LOCAL-model runtime and report message stats")
	count     = flag.Int("count", 1, "number of independent samples (batch engine when > 1)")
	workers   = flag.Int("workers", 0, "worker goroutines for -count > 1 (0 = GOMAXPROCS)")
	shards    = flag.Int("shards", 0, "shard workers per chain (sharded cluster runtime when > 1; MRF and CSP workloads alike; bit-identical output)")
	parallel  = flag.Int("parallel", 0, "vertex-parallel goroutines per round phase (when > 1; MRF and CSP workloads alike; bit-identical output, exclusive with -shards)")
	shardStr  = flag.String("shard-strategy", "range", "graph partitioner: range|bfs")
	modelFile = flag.String("model-file", "", "load the workload from a JSON spec file (overrides -graph/-model flags)")
	jsonOut   = flag.Bool("json", false, "emit the report and samples as JSON")
	verbose   = flag.Bool("v", false, "print the full sample (text mode; JSON always includes samples)")
	tracePath = flag.String("trace", "", "record the draw and write Chrome trace-event JSON to this file (single draws only; open in chrome://tracing or Perfetto; the traced draw is bit-identical to the untraced one)")
	diag      = flag.Bool("diag", false, "run the draw as a coupled-chain diagnosed draw and report coalescence (single draws only; the sample is bit-identical to an undiagnosed draw)")
)

// rounds is an integer -rounds (0: the family's default budget) and
// roundsAuto the -rounds auto spelling (a coupling-measured budget); both
// are resolved once in main.
var (
	rounds     int
	roundsAuto bool
)

func main() {
	flag.Parse()
	switch v := strings.ToLower(strings.TrimSpace(*roundsStr)); v {
	case "", "0":
		// Theory budget (or each family's default).
	case "auto":
		roundsAuto = true
	default:
		r, err := strconv.Atoi(v)
		if err != nil || r < 0 {
			fatal(fmt.Errorf("-rounds must be a non-negative integer or \"auto\", got %q", *roundsStr))
		}
		rounds = r
	}
	if *tracePath != "" && *count > 1 {
		fatal(fmt.Errorf("-trace records a single draw; it is not supported with -count > 1"))
	}
	if *tracePath != "" && *distr {
		fatal(fmt.Errorf("-trace is not supported with -distributed (the LOCAL-model replay has no round kernel to time)"))
	}
	if *diag && *count > 1 {
		fatal(fmt.Errorf("-diag diagnoses a single draw; it is not supported with -count > 1"))
	}
	if *diag && *distr {
		fatal(fmt.Errorf("-diag is not supported with -distributed (couplings run on the chain runtime, not the LOCAL-model replay)"))
	}
	if *diag && *tracePath != "" {
		fatal(fmt.Errorf("-diag and -trace are mutually exclusive (diagnosed draws record round series, not trace spans)"))
	}
	if roundsAuto && *distr {
		fatal(fmt.Errorf("-rounds auto is not supported with -distributed"))
	}
	strat, err := locsample.ParseShardStrategy(*shardStr)
	if err != nil {
		fatal(err)
	}

	var f family
	if *modelFile != "" {
		f = specFamily(*modelFile)
	} else {
		g, err := buildGraph(*graphKind, *n, *rows, *cols, *dim, *d, *p, *seed)
		if err != nil {
			fatal(err)
		}
		if *model == "domset" {
			c := locsample.NewWeightedDominatingSet(g, *lambda)
			init := make([]int, g.N())
			for i := range init {
				init[i] = 1
			}
			f = cspFamily(g, c, init, fmt.Sprintf("dominating set λ=%g (weighted local CSP)", *lambda), rounds,
				func(x []int) { fmt.Printf("dominating: %v  size=%d\n", g.IsDominatingSet(x), ones(x)) })
		} else {
			m, desc, err := buildModel(g, *model, *q, *lambda, *beta, *field)
			if err != nil {
				fatal(err)
			}
			f = mrfFamily(g, m, *graphKind, desc, *model)
		}
	}
	run(f, strat)
}

// family is one model family's half of a run: the report header, the
// compile options and compile function, and the validity report. The
// draw and the report are shared: see run.
type family struct {
	g         *locsample.Graph
	graphKind string // the report's graph kind ("csp" for CSP workloads)
	desc      string // model description
	alg       string // the chain, as the report names it
	opts      []locsample.Option
	compile   func(opts []locsample.Option) (drawer, error)
	// valid prints one sample's validity verdict (nothing for models
	// without one).
	valid func(sample []int)
}

// drawer is what a run needs of a compiled sampler.
type drawer interface {
	Draw(ctx context.Context, req locsample.DrawRequest) (*locsample.Batch, error)
	CapRounds() int
	Close() error
}

// mrfFamily runs an MRF through NewSampler; reportKey picks its validity
// report.
func mrfFamily(g *locsample.Graph, m *locsample.Model, graphKind, desc, reportKey string) family {
	alg, err := locsample.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	opts := []locsample.Option{locsample.WithAlgorithm(alg), locsample.WithEpsilon(*eps)}
	if rounds > 0 {
		opts = append(opts, locsample.WithRounds(rounds))
	}
	if *distr {
		opts = append(opts, locsample.Distributed())
	}
	return family{g: g, graphKind: graphKind, desc: desc, alg: alg.String(), opts: opts,
		compile: func(opts []locsample.Option) (drawer, error) { return locsample.NewSampler(m, opts...) },
		valid:   func(x []int) { report(g, reportKey, x) }}
}

// cspFamily runs a weighted local CSP through NewCSPSampler, or with
// -distributed through SampleCSP's LOCAL-model runtime, for budget chain
// iterations (200 when budget ≤ 0: CSPs have no theory budget).
func cspFamily(g *locsample.Graph, c *locsample.CSPModel, init []int, desc string, budget int, valid func([]int)) family {
	if budget <= 0 {
		budget = 200
	}
	return family{g: g, graphKind: "csp", desc: desc, alg: "hypergraph lubyglauber",
		opts: []locsample.Option{locsample.WithRounds(budget)},
		compile: func(opts []locsample.Option) (drawer, error) {
			if *distr {
				return &localCSP{g: g, c: c, init: init, rounds: budget, opts: opts}, nil
			}
			return locsample.NewCSPSampler(g, c, init, opts...)
		},
		valid: valid}
}

// localCSP draws single CSP chains on the LOCAL-model runtime through
// SampleCSP, since NewCSPSampler runs only the centralized replay.
type localCSP struct {
	g      *locsample.Graph
	c      *locsample.CSPModel
	init   []int
	rounds int
	opts   []locsample.Option
}

func (l *localCSP) Draw(_ context.Context, req locsample.DrawRequest) (*locsample.Batch, error) {
	if req.K > 0 {
		return nil, fmt.Errorf("-distributed is not supported with -count > 1 for CSP workloads (batch chains run the centralized replay)")
	}
	out, st, err := locsample.SampleCSP(l.g, l.c, l.init, l.rounds, req.Seed, true, l.opts...)
	if err != nil {
		return nil, err
	}
	return &locsample.Batch{Samples: [][]int{out}, Rounds: l.rounds, Stats: st}, nil
}

func (*localCSP) CapRounds() int { return 0 }
func (*localCSP) Close() error   { return nil }

// specFamily loads a workload from a JSON spec file.
func specFamily(path string) family {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	s, err := locsample.ParseSpec(data)
	if err != nil {
		fatal(err)
	}
	built, err := locsample.BuildSpec(s)
	if err != nil {
		fatal(err)
	}
	desc := fmt.Sprintf("spec %s (kind %s)", shortHash(built.Hash), s.Model.Kind)
	if s.Name != "" {
		desc = fmt.Sprintf("spec %q %s (kind %s)", s.Name, shortHash(built.Hash), s.Model.Kind)
	}
	// Adopt the spec's serving defaults, except where the user already
	// picked a runtime: -distributed, -shards, and -parallel are mutually
	// exclusive, and an explicit flag suppresses the defaults of the
	// others (so -parallel on a spec whose default is shards runs
	// parallel, and vice versa).
	if *shards == 0 && *parallel <= 1 && !*distr {
		*shards = built.Shards
	}
	if *parallel == 0 && *shards <= 1 && !*distr {
		*parallel = built.Parallel
	}
	if c := built.CSP; c != nil {
		budget := rounds
		if budget <= 0 {
			budget = built.Rounds
		}
		return cspFamily(built.Graph, c, built.Init, desc, budget,
			func(x []int) { fmt.Printf("feasible: %v\n", c.Feasible(x)) })
	}
	graphKind := s.Graph.Family
	if graphKind == "" {
		graphKind = "edges"
	}
	return mrfFamily(built.Graph, built.Model, graphKind, desc, reportKeyForSpec(s.Model.Kind))
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Graph struct {
		Kind   string `json:"kind"`
		N      int    `json:"n"`
		M      int    `json:"m"`
		MaxDeg int    `json:"maxDeg"`
	} `json:"graph"`
	Model        string                `json:"model"`
	Algorithm    string                `json:"algorithm"`
	Rounds       int                   `json:"rounds"`
	TheoryRounds int                   `json:"theoryRounds,omitempty"`
	Seed         uint64                `json:"seed"`
	Count        int                   `json:"count"`
	Shards       int                   `json:"shards,omitempty"`
	Parallel     int                   `json:"parallel,omitempty"`
	ElapsedMS    float64               `json:"elapsedMs,omitempty"`
	Stats        *locsample.Stats      `json:"stats,omitempty"`
	ShardStats   *locsample.ShardStats `json:"shardStats,omitempty"`
	CapRounds    int                   `json:"capRounds,omitempty"`
	Diagnosis    *locsample.Diagnosis  `json:"diagnosis,omitempty"`
	Samples      [][]int               `json:"samples"`
}

// run compiles f under the runtime flags, draws one chain seeded -seed
// (plain, traced or diagnosed) or a -count batch, chain i seeded
// ChainSeed(seed, i), and reports it.
func run(f family, strat locsample.ShardStrategy) {
	opts := append(f.opts, locsample.WithSeed(*seed))
	if roundsAuto {
		opts = append(opts, locsample.WithRoundsAuto())
	}
	if *shards > 1 {
		opts = append(opts, locsample.WithShards(*shards), locsample.WithShardStrategy(strat))
	}
	if *parallel > 1 {
		opts = append(opts, locsample.WithParallelRounds(*parallel))
	}
	if *workers > 0 {
		opts = append(opts, locsample.WithWorkers(*workers))
	}
	s, err := f.compile(opts)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	req := locsample.DrawRequest{Seed: *seed, Trace: *tracePath != "", Diagnose: *diag}
	if *count > 1 {
		req.K = *count
	}
	start := time.Now()
	b, err := s.Draw(context.Background(), req)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if b.Trace != nil {
		writeTraceFile(*tracePath, b.Trace)
	}
	g := f.g
	if *jsonOut {
		r := &jsonReport{Model: f.desc, Algorithm: f.alg, Rounds: b.Rounds, TheoryRounds: b.TheoryRounds,
			Seed: *seed, Count: len(b.Samples), CapRounds: s.CapRounds(), Diagnosis: b.Diagnosis, Samples: b.Samples}
		r.Graph.Kind, r.Graph.N, r.Graph.M, r.Graph.MaxDeg = f.graphKind, g.N(), g.M(), g.MaxDeg()
		if req.K > 0 {
			r.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
		}
		if *distr {
			r.Stats = &b.Stats
		}
		if b.Shard.Shards > 1 {
			r.Shards, r.ShardStats = b.Shard.Shards, &b.Shard
		}
		if *parallel > 1 {
			r.Parallel = *parallel
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("graph: %s  n=%d  m=%d  Δ=%d\n", f.graphKind, g.N(), g.M(), g.MaxDeg())
	fmt.Printf("model: %s\n", f.desc)
	fmt.Printf("algorithm: %s  rounds=%d", f.alg, b.Rounds)
	switch {
	case roundsAuto:
		fmt.Printf("  (measured by coupling coalescence, cap %d)", s.CapRounds())
	case b.TheoryRounds > 0:
		fmt.Printf("  (theory budget for ε=%g)", *eps)
	}
	fmt.Println()
	scope := ""
	if req.K > 0 {
		scope = " (all chains)"
		fmt.Printf("batch: %d samples in %v  (%.1f samples/sec)\n",
			req.K, elapsed.Round(time.Millisecond), float64(req.K)/elapsed.Seconds())
	}
	if b.Diagnosis != nil {
		printDiagnosis(b.Diagnosis)
	}
	if st := b.Stats; *distr {
		fmt.Printf("communication%s: %d LOCAL rounds, %d messages, %d bytes total, max message %d bytes\n",
			scope, st.Rounds, st.Messages, st.Bytes, st.MaxMessageBytes)
	}
	if st := b.Shard; st.Shards > 1 {
		fmt.Printf("sharding: %d shards, %d boundary messages (%d states), barrier wait %.2fms\n",
			st.Shards, st.BoundaryMessages, st.BoundaryValues, float64(st.BarrierWaitNS)/1e6)
	}
	if *parallel > 1 {
		fmt.Printf("parallel rounds: %d goroutines per phase\n", *parallel)
	}
	f.valid(b.Samples[len(b.Samples)-1])
	if *verbose && req.K == 0 {
		fmt.Printf("sample: %v\n", b.Samples[0])
	} else if *verbose {
		for i, x := range b.Samples {
			fmt.Printf("sample %d: %v\n", i, x)
		}
	}
}

func buildGraph(kind string, n, rows, cols, dim, d int, p float64, seed uint64) (*locsample.Graph, error) {
	switch kind {
	case "path":
		return locsample.PathGraph(n), nil
	case "cycle":
		return locsample.CycleGraph(n), nil
	case "grid":
		return locsample.GridGraph(rows, cols), nil
	case "torus":
		return locsample.TorusGraph(rows, cols), nil
	case "complete":
		return locsample.CompleteGraph(n), nil
	case "star":
		return locsample.StarGraph(n), nil
	case "hypercube":
		return locsample.HypercubeGraph(dim), nil
	case "regular":
		return locsample.RandomRegularGraph(n, d, seed)
	case "gnp":
		return locsample.GnpGraph(n, p, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}

func buildModel(g *locsample.Graph, model string, q int, lambda, beta, h float64) (*locsample.Model, string, error) {
	switch model {
	case "coloring":
		if q == 0 {
			q = 3*g.MaxDeg() + 1
		}
		return locsample.NewColoring(g, q), fmt.Sprintf("uniform proper %d-coloring", q), nil
	case "hardcore":
		return locsample.NewHardcore(g, lambda), fmt.Sprintf("hardcore λ=%g (λ_c(Δ)=%g)", lambda, safeLambdaC(g.MaxDeg())), nil
	case "is":
		return locsample.NewIndependentSet(g), "uniform independent set", nil
	case "vc":
		return locsample.NewVertexCover(g), "uniform vertex cover", nil
	case "ising":
		return locsample.NewIsing(g, beta, h), fmt.Sprintf("Ising β=%g h=%g", beta, h), nil
	case "potts":
		if q == 0 {
			q = 3
		}
		return locsample.NewPotts(g, q, beta), fmt.Sprintf("Potts q=%d β=%g", q, beta), nil
	default:
		return nil, "", fmt.Errorf("unknown model %q", model)
	}
}

func safeLambdaC(maxDeg int) float64 {
	if maxDeg < 3 {
		return 0
	}
	return locsample.HardcoreUniquenessThreshold(maxDeg)
}

// reportKeyForSpec maps a spec model kind to the same report keys.
func reportKeyForSpec(kind string) string {
	switch kind {
	case "coloring", "listcoloring":
		return "coloring"
	case "hardcore":
		return "hardcore"
	case "independentset":
		return "is"
	case "vertexcover":
		return "vc"
	case "ising", "potts":
		return "ising"
	default:
		return ""
	}
}

// report prints an MRF sample's validity verdict under a report key.
func report(g *locsample.Graph, key string, sample []int) {
	switch key {
	case "coloring":
		fmt.Printf("proper coloring: %v\n", g.IsProperColoring(sample))
	case "hardcore", "is":
		fmt.Printf("independent set: %v  size=%d\n", g.IsIndependentSet(sample), ones(sample))
	case "vc":
		fmt.Printf("vertex cover: %v  size=%d\n", g.IsVertexCover(sample), ones(sample))
	case "ising", "potts":
		counts := map[int]int{}
		for _, s := range sample {
			counts[s]++
		}
		fmt.Printf("spin counts: %v\n", counts)
	}
}

// ones counts the vertices a 0/1 sample selects.
func ones(sample []int) int {
	size := 0
	for _, x := range sample {
		size += x
	}
	return size
}

func shortHash(h string) string {
	if i := strings.IndexByte(h, ':'); i >= 0 && len(h) > i+13 {
		return h[:i+13]
	}
	return h
}

// printDiagnosis reports a diagnosed draw's coalescence verdict in text
// mode.
func printDiagnosis(d *locsample.Diagnosis) {
	if d.Coalesced {
		fmt.Printf("mixing: %d coupled chains coalesced at round %d  (measured budget %d, ran %d, cap %d)\n",
			d.Chains, d.CoalescenceRound, d.MeasuredRounds, d.Rounds, d.MaxRounds)
		return
	}
	final := 0
	if n := len(d.Series.Disagree); n > 0 {
		final = d.Series.Disagree[n-1]
	}
	fmt.Printf("mixing: %d coupled chains did NOT coalesce within %d rounds  (final disagreement %d sites)\n",
		d.Chains, d.Rounds, final)
}

// writeTraceFile exports a recorded trace as Chrome trace-event JSON.
func writeTraceFile(path string, tr *locsample.Trace) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lsample: trace %s written to %s\n", tr.ID, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsample:", err)
	os.Exit(1)
}
