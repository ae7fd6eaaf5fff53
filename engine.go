package locsample

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/core"
	"locsample/internal/partition"
)

// Sampler is the batch sampling engine: it compiles a model and option set
// once — round budget, feasible initial configuration, proposal tables, CSR
// adjacency, and (with WithShards) the partitioned shard plan — and then
// draws any number of independent samples without repeating that setup.
// SampleN spreads chains over a worker pool that borrows pooled, reusable
// chain states and scratch buffers, so the chains' inner loops run
// allocation-free in the steady state. With WithShards(k), every chain
// additionally runs as k lockstep shard workers exchanging only boundary
// states — within-chain parallelism for single-draw latency on graphs too
// large for one core.
//
// Determinism: chain i of SampleN(k) with master seed s is bit-identical to
// a single Sample call with seed ChainSeed(s, i), regardless of k, worker
// count, scheduling, shard count, or partition strategy. Sampler.Sample()
// is bit-identical to the package level Sample with the same options.
type Sampler struct {
	drawRuntime
	m *Model
}

// ShardStats reports a sharded draw's runtime profile: worker count,
// boundary messages and vertex states exchanged, and time spent blocked at
// round barriers.
type ShardStats = cluster.Stats

// ShardStrategy selects the graph partitioner used by WithShards.
type ShardStrategy = partition.Strategy

const (
	// ShardRange partitions vertices into contiguous, balanced ID blocks —
	// near-minimal boundaries on generators with coherent numbering
	// (grids, paths, tori).
	ShardRange = partition.Range
	// ShardBFS grows shards by seeded breadth-first search — low-cut
	// regions on graphs whose vertex numbering carries no locality.
	ShardBFS = partition.BFS
)

// DrawRequest names one draw of a compiled sampler; Sampler.Draw and
// CSPSampler.Draw serve every request shape. No observation a request
// asks for changes the samples: a traced or diagnosed draw returns the
// bytes of a plain draw at the same seed.
type DrawRequest struct {
	// Seed is the master seed.
	Seed uint64
	// K is the number of chains. K ≥ 1 runs chain i at ChainSeed(Seed, i),
	// as SampleNFrom does; K = 0 runs one chain seeded Seed itself, as
	// Sample does.
	K int
	// Trace records the draw's per-round spans into Batch.Trace: compute
	// (and, sharded, barrier) spans per shard lane, per-worker wire
	// attribution for remote draws, and one draw-level span. Diagnose runs
	// a grand coupling alongside the draw and returns Batch.Diagnosis; the
	// coupling runs centralized and sequential, for the full compiled
	// budget, and chain 0 of it is the draw. Each needs K ≤ 1, and the two
	// exclude each other.
	Trace, Diagnose bool
	// Probe observes a diagnosed draw's coupling live, one call per round
	// (nil: none). It runs on the round hot path; see CouplingProbe.
	Probe CouplingProbe
}

// Batch is the result of a draw: k independent samples drawn from one
// compiled model. All samples share one flat backing array.
type Batch struct {
	// Samples[i] is chain i's output configuration.
	Samples [][]int
	// Rounds is the number of chain iterations each chain executed.
	Rounds int
	// TheoryRounds is the automatic round budget (0 when WithRounds was
	// supplied).
	TheoryRounds int
	// Stats aggregates communication across all chains of a distributed
	// batch: message/byte counts are summed, MaxMessageBytes and Rounds
	// are per-chain maxima. Zero for centralized batches.
	Stats Stats
	// Shard aggregates the sharded runtime's profile across all chains
	// (messages, values, and barrier waits are summed). Zero for
	// unsharded batches.
	Shard ShardStats
	// SoAWidth is the lane width of the SoA block engine the batch ran
	// through (0 when chains ran the per-chain reference path). Purely
	// informational: the samples are bit-identical either way.
	SoAWidth int
	// Trace is the timing trace of a DrawRequest.Trace draw (nil
	// otherwise); Trace.WriteChrome renders it for chrome://tracing and
	// Perfetto.
	Trace *Trace
	// Diagnosis is the mixing report of a DrawRequest.Diagnose draw (nil
	// otherwise).
	Diagnosis *Diagnosis
}

// shard returns the batch's shard profile, or nil for an unsharded draw.
func (b *Batch) shard() *ShardStats {
	if b.Shard.Shards == 0 {
		return nil
	}
	return &b.Shard
}

// ChainSeed derives the seed batch chain i runs with under master seed s:
// SampleN chain i equals Sample(WithSeed(ChainSeed(s, i))) bit-for-bit.
func ChainSeed(s uint64, i int) uint64 {
	return core.ChainSeed(s, uint64(i))
}

// WithWorkers bounds the goroutine pool SampleN uses (default GOMAXPROCS,
// or GOMAXPROCS/shards when sharding). It does not affect results, only
// how chains are spread over CPUs.
func WithWorkers(n int) Option {
	return func(c *core.Config) { c.Workers = n }
}

// WithShards splits every single chain across k lockstep shard workers
// that exchange only boundary states between rounds (the in-process
// analogue of the paper's message-passing network). Output is
// bit-identical to the unsharded chain at the same seed — a vertex keeps
// its PRF-keyed randomness regardless of which shard owns it — so k is
// purely a latency/throughput knob. Only LubyGlauber and LocalMetropolis
// shard; k ≤ 1 means centralized.
func WithShards(k int) Option {
	return func(c *core.Config) { c.Shards = k }
}

// WithShardStrategy selects the graph partitioner WithShards uses
// (default ShardRange). The choice never affects outputs, only boundary
// traffic.
func WithShardStrategy(s ShardStrategy) Option {
	return func(c *core.Config) { c.ShardStrategy = s }
}

// WithParallelRounds runs each round of every chain as barrier-separated
// vertex-parallel phases (propose / edge-filter / accept, and β-fill /
// resample) fanned across n goroutines over contiguous CSR ranges; n <= 0
// means GOMAXPROCS. Unlike WithShards this needs no partition plan or
// boundary exchange — it is the lightweight way to put one chain on many
// cores. Trajectories are bit-identical to sequential rounds at every
// worker count, so n is purely a latency knob. Only LubyGlauber and
// LocalMetropolis support it; it is mutually exclusive with WithShards and
// WithDistributed.
func WithParallelRounds(n int) Option {
	return func(c *core.Config) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.Parallel = n
	}
}

// ParseShardStrategy maps a wire name ("range", "bfs", or "" for the
// default) to a ShardStrategy.
func ParseShardStrategy(s string) (ShardStrategy, error) {
	return partition.ParseStrategy(s)
}

// ParseAlgorithm maps a wire or flag name to a chain, case-insensitively:
// "glauber", "lubyglauber" (or "luby"), "localmetropolis" (or "lm", or ""
// for the default), "scan" (or "systematicscan"), and "chromatic" (or
// "chromaticglauber"). Algorithm.String names parse back to themselves.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "glauber":
		return Glauber, nil
	case "lubyglauber", "luby":
		return LubyGlauber, nil
	case "localmetropolis", "lm", "":
		return LocalMetropolis, nil
	case "scan", "systematicscan":
		return SystematicScan, nil
	case "chromatic", "chromaticglauber":
		return ChromaticGlauber, nil
	default:
		return 0, fmt.Errorf("locsample: unknown algorithm %q", s)
	}
}

// NewSampler compiles model m with the given options into a reusable batch
// sampler. The round budget, the greedy feasible initial configuration,
// and (when sharded) the partition plan are resolved once, here; they are
// exactly the values every individual Sample call with the same options
// would resolve.
func NewSampler(m *Model, opts ...Option) (*Sampler, error) {
	cfg := core.Config{Algorithm: chains.LocalMetropolis}
	for _, opt := range opts {
		opt(&cfg)
	}
	rounds, theory, init, err := core.Compile(m, cfg)
	if err != nil {
		return nil, err
	}
	// Copied: the caller may mutate the slice it passed WithInitial.
	init = append([]int(nil), init...)
	kern := &mrfKernels{m: m, init: init, alg: cfg.Algorithm, transport: cfg.Transport,
		opts: chains.Options{DropRule3: cfg.DropRule3, Parallel: cfg.Parallel}}
	s := &Sampler{m: m, drawRuntime: drawRuntime{kern: kern, label: "mrf", cfg: cfg,
		n: m.G.N(), q: m.Q, init: init, rounds: rounds, theory: theory}}
	if err := s.compile(); err != nil {
		return nil, err
	}
	if cfg.Distributed {
		s.replay = s.runLOCAL
	}
	if cfg.Shards > 1 {
		plan, err := partition.Build(m.G, cfg.Shards, cfg.ShardStrategy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		kern.plan = plan
		if len(cfg.WorkerAddrs) > 0 {
			// Coordinator mode: the shards live in lsharded processes. The
			// workers rebuild the model from its wire spec, so derive one
			// when the caller didn't pin it with WithModelSpec.
			sp := cfg.ModelSpec
			if sp == nil {
				sp, err = NewSpecFromModel(m, "remote")
				if err != nil {
					return nil, fmt.Errorf("locsample: remote draws ship the model as a spec: %w", err)
				}
			}
			err = s.connect(&plan.Layout, remoteJob{kind: "mrf", spec: sp,
				algorithm: cfg.Algorithm.String(), dropRule3: cfg.DropRule3})
		} else {
			err = s.startEngines(plan.K)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// TheoryRounds returns the automatic round budget, or 0 when WithRounds
// pinned the budget explicitly.
func (s *Sampler) TheoryRounds() int { return s.theory }

// Sample draws one configuration with the compiled settings and the master
// seed, exactly as the package-level Sample would: Draw with
// DrawRequest{Seed: WithSeed's seed}.
func (s *Sampler) Sample() (*Result, error) {
	b, err := s.Draw(context.Background(), DrawRequest{Seed: s.cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Result{Sample: b.Samples[0], Rounds: b.Rounds, TheoryRounds: b.TheoryRounds,
		Stats: b.Stats, Shard: b.shard()}, nil
}

// runLOCAL runs one chain at seed into out on the LOCAL-model runtime,
// the message-passing protocol a Distributed sampler draws with.
func (s *Sampler) runLOCAL(seed uint64, out []int) (Stats, error) {
	cfg := s.cfg
	cfg.Seed = seed
	cfg.Rounds = s.rounds // measured count when auto; core re-resolves nothing
	cfg.RoundsAuto = false
	cfg.Init = s.init
	res, err := core.Sample(s.m, cfg)
	if err != nil {
		return Stats{}, err
	}
	copy(out, res.Sample)
	return res.Stats, nil
}
