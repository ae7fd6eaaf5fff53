package locsample

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/core"
	"locsample/internal/obs"
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

// Batch is the result of SampleN: k independent samples drawn from one
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
		n: m.G.N(), init: init, rounds: rounds, theory: theory}}
	if err := s.compile(); err != nil {
		return nil, err
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
// seed, exactly as the package-level Sample would.
func (s *Sampler) Sample() (*Result, error) {
	return s.sampleWithSeed(context.Background(), s.cfg.Seed)
}

// SampleContext is Sample under a context: a cancel or deadline aborts
// the draw — remote draws unblock their control reads and stop
// retrying, sharded draws close their engine, centralized chains stop
// at the next round boundary — and ctx.Err() is returned. Cancellation
// never yields a partial sample.
func (s *Sampler) SampleContext(ctx context.Context) (*Result, error) {
	return s.sampleWithSeed(ctx, s.cfg.Seed)
}

// result wraps a draw's sample with the compiled budgets.
func (s *Sampler) result(out []int, st *ShardStats) *Result {
	return &Result{Sample: out, Rounds: s.rounds, TheoryRounds: s.theory, Shard: st}
}

func (s *Sampler) sampleWithSeed(ctx context.Context, seed uint64) (*Result, error) {
	if !s.cfg.Distributed {
		out, st, err := s.draw(ctx, seed, nil)
		if err != nil {
			return nil, err
		}
		return s.result(out, st), nil
	}
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Seed = seed
	cfg.Rounds = s.rounds // measured count when auto; core re-resolves nothing
	cfg.RoundsAuto = false
	cfg.Init = s.init
	res, err := core.Sample(s.m, cfg)
	if err != nil {
		return nil, err
	}
	if cerr := ctxErr(ctx); cerr != nil {
		return nil, cerr
	}
	res.TheoryRounds = s.theory
	s.observeDraw(start, 1)
	return res, nil
}

// SampleTraced draws one configuration exactly like Sample while
// recording a timing trace: per-round compute (and, for sharded
// draws, barrier) spans per shard lane, plus per-worker wire
// attribution when the draw runs on remote workers. Tracing never
// perturbs the trajectory — the sample is bit-identical to an
// untraced draw at the same seed. Render the trace with
// Trace.WriteChrome for chrome://tracing / Perfetto.
func (s *Sampler) SampleTraced() (*Result, *Trace, error) {
	return s.SampleTracedFrom(s.cfg.Seed)
}

// SampleTracedFrom is SampleTraced with an explicit master seed.
func (s *Sampler) SampleTracedFrom(seed uint64) (*Result, *Trace, error) {
	return s.SampleTracedContext(context.Background(), seed)
}

// SampleTracedContext is SampleTracedFrom under a context; a canceled
// ctx aborts the draw exactly as in SampleContext and returns
// ctx.Err().
func (s *Sampler) SampleTracedContext(ctx context.Context, seed uint64) (*Result, *Trace, error) {
	if s.cfg.Distributed {
		// The LOCAL-model runtime has no per-round hooks; a traced
		// distributed draw records only the draw-level span.
		tr := obs.NewTrace("mrf draw")
		t0 := tr.Now()
		res, err := s.sampleWithSeed(ctx, seed)
		if err != nil {
			return nil, nil, err
		}
		s.addDrawSpan(tr, t0, seed)
		return res, tr, nil
	}
	out, st, tr, err := s.drawTraced(ctx, seed)
	if err != nil {
		return nil, nil, err
	}
	return s.result(out, st), tr, nil
}

// SampleDiagnosed draws one configuration exactly like Sample while
// running a grand coupling alongside it: WithCoupling(k) chains (default
// 4) advance from adversarial initial states under the draw's own PRF
// coins, and the returned Diagnosis carries the per-round mixing series
// (Hamming disagreement, flip-rate EWMA, per-shard compute/barrier
// attribution) plus the coalescence verdict. Chain 0 of the coupling IS
// the draw — it starts from the compiled init with the draw's seed — so
// the sample is bit-identical to an undiagnosed Sample at the same seed
// (pinned). Diagnosed draws always run the full compiled budget and run
// centralized (sharding is a latency runtime, not a distribution one);
// Result.Shard is therefore nil.
func (s *Sampler) SampleDiagnosed() (*Result, *Diagnosis, error) {
	return s.SampleDiagnosedObserved(s.cfg.Seed, nil)
}

// SampleDiagnosedFrom is SampleDiagnosed with an explicit master seed.
func (s *Sampler) SampleDiagnosedFrom(seed uint64) (*Result, *Diagnosis, error) {
	return s.SampleDiagnosedObserved(seed, nil)
}

// SampleDiagnosedObserved is SampleDiagnosedFrom with a per-round probe —
// the live-streaming seam (the service's SSE endpoint is such a probe).
// The probe runs on the round hot path; see diag.Probe for the contract.
func (s *Sampler) SampleDiagnosedObserved(seed uint64, probe CouplingProbe) (*Result, *Diagnosis, error) {
	out, d, err := s.diagnose(seed, probe)
	if err != nil {
		return nil, nil, err
	}
	return s.result(out, nil), d, nil
}

// SampleN draws k independent samples concurrently. Chain i runs with seed
// ChainSeed(masterSeed, i); results are positionally stable, so the same
// call always returns the same Batch no matter how many workers raced over
// it. In centralized mode chains reuse pooled chain states and scratch,
// so beyond the k result slices nothing is allocated per chain and nothing
// at all per round. In sharded mode each chain borrows a pooled cluster
// engine and runs shard-parallel inside it.
func (s *Sampler) SampleN(k int) (*Batch, error) {
	return s.SampleNFrom(s.cfg.Seed, k)
}

// SampleNFrom is SampleN with an explicit master seed in place of the
// compiled WithSeed value: chain i runs with ChainSeed(seed, i). It does
// not mutate the Sampler, so concurrent calls (the serving path, where one
// compiled sampler answers many requests with per-request seeds) are safe.
func (s *Sampler) SampleNFrom(seed uint64, k int) (*Batch, error) {
	return s.SampleNContext(context.Background(), seed, k)
}

// SampleNContext is SampleNFrom under a context. A cancel aborts the
// batch and returns ctx.Err(): no worker claims another chain,
// centralized chains stop at their next round boundary, remote chains
// abort through the coordinator, and in-flight sharded chains have
// their engines closed. A canceled batch never returns partial
// samples.
func (s *Sampler) SampleNContext(ctx context.Context, seed uint64, k int) (*Batch, error) {
	if !s.cfg.Distributed {
		return s.sampleN(ctx, seed, k)
	}
	batch, err := s.newBatch(ctx, k)
	if err != nil {
		return nil, err
	}
	chainStats := make([]Stats, k)
	var abort atomic.Bool
	err = claim(ctx, s.workers(), k, &abort, func(i int) error {
		res, err := s.sampleWithSeed(ctx, core.ChainSeed(seed, uint64(i)))
		if err != nil {
			return err
		}
		copy(batch.Samples[i], res.Sample)
		chainStats[i] = res.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, st := range chainStats {
		batch.Stats.Messages += st.Messages
		batch.Stats.Bytes += st.Bytes
		if st.MaxMessageBytes > batch.Stats.MaxMessageBytes {
			batch.Stats.MaxMessageBytes = st.MaxMessageBytes
		}
		if st.Rounds > batch.Stats.Rounds {
			batch.Stats.Rounds = st.Rounds
		}
	}
	return batch, nil
}
