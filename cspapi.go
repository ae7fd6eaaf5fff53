package locsample

import (
	"context"
	"fmt"

	"locsample/internal/chains"
	"locsample/internal/core"
	"locsample/internal/csp"
	"locsample/internal/dist"
	"locsample/internal/localmodel"
	"locsample/internal/partition"
)

// CSPModel is a weighted local CSP (factor graph, §2.2 of the paper):
// constraints (f_c, S_c) with per-vertex activities. It generalizes Model
// to multivariate constraints; both of the paper's chains extend to it
// (§3 and §4 remarks).
type CSPModel = csp.CSP

// CSPConstraint is one weighted constraint: a scope and a non-negative
// function over it.
type CSPConstraint = csp.Constraint

// NewDominatingSet returns the uniform distribution over dominating sets of
// g as a CSP (one cover constraint per inclusive neighborhood).
func NewDominatingSet(g *Graph) *CSPModel { return csp.DominatingSet(g) }

// NewWeightedDominatingSet weights dominating sets by λ^|S|.
func NewWeightedDominatingSet(g *Graph, lambda float64) *CSPModel {
	return csp.WeightedDominatingSet(g, lambda)
}

// NewCSP assembles a custom weighted local CSP; see csp.New for validation
// rules (constraint arities are enumerated to normalize — and compile — the
// factors, so keep them small).
func NewCSP(n, q int, vertexActivities [][]float64, cons []CSPConstraint) (*CSPModel, error) {
	return csp.New(n, q, vertexActivities, cons)
}

// CSPSampler is the compiled CSP batch engine — the CSP counterpart of
// Sampler. NewCSPSampler resolves the run parameters once (round budget,
// feasibility of the initial configuration, and, with WithShards, the
// constraint-scope partition plan); draws then reuse pooled chain state,
// SoA blocks or sharded engines, so steady-state rounds allocate nothing.
//
// Determinism contract: chain i of SampleNFrom(seed, k) is bit-identical to
// a single SampleCSP draw with seed ChainSeed(seed, i), regardless of
// worker count, scheduling, shard count, partition strategy, or
// vertex-parallel worker count — WithShards and WithParallelRounds are
// purely latency knobs.
type CSPSampler struct {
	drawRuntime
}

// NewCSPSampler compiles CSP c on network g with the given options into a
// reusable batch sampler. init must be feasible and WithRounds must supply
// a positive budget (CSPs have no theory budget). Honored options:
// WithRounds, WithRoundsAuto, WithCoupling, WithSeed, WithWorkers,
// WithBatchWidth, WithShards, WithShardStrategy, WithParallelRounds,
// WithTransport, WithRemoteWorkers, WithStandbyWorkers, WithRetryPolicy,
// WithModelSpec, WithMetrics and WithLogger; Distributed draws go through
// SampleCSP instead.
func NewCSPSampler(g *Graph, c *CSPModel, init []int, opts ...Option) (*CSPSampler, error) {
	cfg := core.Config{Algorithm: chains.LubyGlauber}
	for _, opt := range opts {
		opt(&cfg)
	}
	return newCSPSampler(g, c, init, cfg)
}

// newCSPSampler is NewCSPSampler over an already-resolved Config (the
// option closures have run).
func newCSPSampler(g *Graph, c *CSPModel, init []int, cfg core.Config) (*CSPSampler, error) {
	if g != nil && g.N() != c.N {
		return nil, fmt.Errorf("locsample: CSP has %d vertices, network %d", c.N, g.N())
	}
	if cfg.Distributed {
		return nil, fmt.Errorf("locsample: the batch CSP sampler runs the centralized replay; use SampleCSP(..., distributed=true) for the LOCAL-model runtime")
	}
	cfg.Init = init
	rounds, err := core.CompileCSP(c, cfg)
	if err != nil {
		return nil, err
	}
	init = append([]int(nil), init...)
	kern := &cspKernels{c: c, init: init, parallel: cfg.Parallel, transport: cfg.Transport}
	s := &CSPSampler{drawRuntime{kern: kern, label: "csp", cfg: cfg, n: c.N, q: c.Q, init: init, rounds: rounds}}
	if err := s.compile(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		plan, err := partition.BuildCSP(c, cfg.Shards, cfg.ShardStrategy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		kern.plan = plan
		if len(cfg.WorkerAddrs) > 0 {
			sp := cfg.ModelSpec
			if sp == nil {
				sp, err = NewSpecFromCSP(g, c, init, rounds, "remote")
				if err != nil {
					return nil, fmt.Errorf("locsample: remote draws ship the CSP as a spec: %w", err)
				}
			}
			err = s.connect(&plan.Layout, remoteJob{kind: "csp", spec: sp})
		} else {
			err = s.startEngines(plan.K)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Sample draws one configuration with the compiled settings and the master
// seed, exactly as the package-level SampleCSP would: Draw with
// DrawRequest{Seed: WithSeed's seed}. The shard profile is nil for an
// unsharded draw.
func (s *CSPSampler) Sample() ([]int, *ShardStats, error) {
	b, err := s.Draw(context.Background(), DrawRequest{Seed: s.cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	return b.Samples[0], b.shard(), nil
}

// SampleCSP draws one configuration approximately distributed as the CSP's
// Gibbs distribution using the hypergraph LubyGlauber chain (§3 remark).
// When distributed is true the chain runs as a LOCAL protocol on network g
// (two communication rounds per chain iteration; constraints must have
// scope radius ≤ 1 on g, as cover constraints do). init must be feasible;
// rounds > 0 is required (no general theory budget exists for arbitrary
// CSPs). Options may select an in-chain runtime — WithShards(k) runs the
// chain as k lockstep shard workers over a constraint-scope partition,
// WithParallelRounds(n) fans each round's phases over n goroutines — both
// bit-identical to the sequential chain at the same seed, and both
// exclusive with distributed mode. Every NewCSPSampler option is honored.
func SampleCSP(g *Graph, c *CSPModel, init []int, rounds int, seed uint64, distributed bool, opts ...Option) ([]int, Stats, error) {
	if rounds <= 0 {
		return nil, Stats{}, fmt.Errorf("locsample: SampleCSP needs rounds > 0")
	}
	cfg := core.Config{Algorithm: chains.LubyGlauber, Rounds: rounds, Seed: seed, Init: init}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Algorithm, cfg.Rounds, cfg.Seed, cfg.Init = chains.LubyGlauber, rounds, seed, init
	cfg.Distributed = cfg.Distributed || distributed
	if cfg.Distributed {
		// The sampler path below validates through newCSPSampler; the
		// distributed path validates here (runtime exclusivity included).
		if _, err := core.CompileCSP(c, cfg); err != nil {
			return nil, Stats{}, err
		}
		return dist.RunCSPLubyGlauber(g, c, init, seed, rounds)
	}
	s, err := newCSPSampler(g, c, init, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	out, _, err := s.Sample()
	if err != nil {
		return nil, Stats{}, err
	}
	return out, localmodel.Stats{Rounds: rounds}, nil
}

// SampleCSPN draws k independent CSP samples over a worker pool — the CSP
// counterpart of Sampler.SampleN, with the same determinism contract:
// chain i is bit-identical to SampleCSP(g, c, init, rounds, ChainSeed(seed,
// i), false), regardless of k, worker count, or scheduling. Feasibility of
// init is validated once; workers <= 0 means GOMAXPROCS. All samples share
// one flat backing array, and chains reuse pooled chain scratch, so the
// steady-state inner loops allocate nothing. Options as in SampleCSP
// (distributed batches are not supported).
func SampleCSPN(g *Graph, c *CSPModel, init []int, rounds int, seed uint64, k, workers int, opts ...Option) ([][]int, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("locsample: SampleCSPN needs rounds > 0")
	}
	if k < 0 {
		return nil, fmt.Errorf("locsample: SampleCSPN needs k >= 0, got %d", k)
	}
	cfg := core.Config{Algorithm: chains.LubyGlauber, Rounds: rounds, Seed: seed, Init: init, Workers: workers}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Algorithm, cfg.Rounds, cfg.Seed, cfg.Init = chains.LubyGlauber, rounds, seed, init
	if workers > 0 {
		cfg.Workers = workers
	}
	if cfg.Distributed {
		return nil, fmt.Errorf("locsample: SampleCSPN runs the centralized replay; Distributed batches are not supported")
	}
	s, err := newCSPSampler(g, c, init, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	batch, err := s.SampleNFrom(seed, k)
	if err != nil {
		return nil, err
	}
	return batch.Samples, nil
}
