package locsample

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/core"
	"locsample/internal/csp"
	"locsample/internal/diag"
	"locsample/internal/obs"
	"locsample/internal/partition"
)

// drawRuntime is the draw machinery Sampler and CSPSampler share. The
// paper runs both of its chains on MRFs and weighted local CSPs alike (an
// MRF is a CSP with arity-2 constraints, §2.2), so nothing above the round
// kernels depends on the model family: this type owns the pooled chain
// states, SoA blocks and shard engines, the remote coordinator, the
// k-chain claim loop, SoA width dispatch and the draw metrics. A family
// plugs in through kernels, once per chain, block, shard engine or
// coupled run — never per vertex or per round.
//
// Determinism: chain i of a k-chain batch under master seed s runs with
// ChainSeed(s, i) on whichever runtime the batch picks (per-chain, SoA
// lane, shards, remote workers), and every one of them reproduces the
// centralized chain at that seed bit-for-bit.
type drawRuntime struct {
	kern  kernels
	label string // "mrf" | "csp": the metrics engine label and trace name
	cfg   core.Config
	n, q  int // vertices and spins per vertex
	init  []int
	// rounds is the per-chain budget draws run; theory is the automatic
	// budget it came from (0 when pinned, and for CSPs, which have none).
	rounds int
	theory int
	// capRounds is the worst-case budget a WithRoundsAuto compile measured
	// under (0 when the budget was not auto-measured); rounds then holds
	// the coupling-measured count.
	capRounds int
	// shards is the compiled plan's shard count (0 when unsharded).
	shards int
	// replay runs one chain at seed into out on the LOCAL-model runtime
	// and returns its communication profile (nil unless a Distributed
	// Sampler).
	replay func(seed uint64, out []int) (Stats, error)

	// remote is the cross-process coordinator (nil unless WithRemoteWorkers
	// placed the shards on lsharded processes). Remote draws are serialized
	// on its control connections instead of pooled engines.
	remote *remoteEngine
	// chainPool and engines pool per-chain steppers and shard engines
	// across draws, so the serving path's steady state — many calls with
	// small k — constructs and allocates nothing per round. One engine
	// serves one draw at a time; concurrent calls each borrow their own.
	chainPool sync.Pool
	engines   sync.Pool
	// soaPool pools SoA blocks, grow-only on width: a pooled block serves
	// any batch no wider than it was built for (lanes pack at the run
	// width), and an undersized one is dropped and rebuilt wider.
	soaPool sync.Pool

	// Metric series (nil without WithMetrics). roundObs is the
	// allocation-free observer pooled chains, blocks and engines run with;
	// mDraws/mDrawNS meter whole draws.
	mDraws   *obs.Counter
	mDrawNS  *obs.Histogram
	roundObs *obs.RoundMetrics
}

// kernels is what a model family plugs into drawRuntime: constructors for
// its per-chain stepper, SoA block, shard engine and coupled run.
type kernels interface {
	newChain() chainStepper
	newBlock(width int) blockStepper
	newEngine() (shardEngine, error)
	newCoupled(seed uint64, o diag.Options) (*diag.Coupled, error)
}

// chainStepper is one per-chain stepper: chains.Sampler or csp.Chain.
type chainStepper interface {
	Reset(init []int, seed uint64)
	Run(rounds int)
	// state returns the chain's live configuration.
	state() []int
	// hook installs the round observer and abort flag Run honors.
	hook(o chains.RoundObserver, abort *atomic.Bool)
}

// blockStepper is one SoA block: chains.SoABlock or csp.SoABlock.
type blockStepper interface {
	Reset(init []int, seeds []uint64)
	Run(rounds int)
	Scatter(dst [][]int)
	MaxWidth() int
	hook(o chains.RoundObserver, abort *atomic.Bool)
}

// shardEngine is one sharded-chain engine: cluster.Engine or
// cluster.CSPEngine.
type shardEngine interface {
	Run(init []int, seed uint64, rounds int, out []int) (ShardStats, error)
	SetObserver(o chains.RoundObserver)
	Close() error
}

// The steppers expose their observer and abort flag as fields; these
// adapters set them through chainStepper and blockStepper.
type (
	mrfChain struct{ *chains.Sampler }
	cspChain struct{ *csp.Chain }
	mrfBlock struct{ *chains.SoABlock }
	cspBlock struct{ *csp.SoABlock }
)

func (c mrfChain) state() []int { return c.X }
func (c cspChain) state() []int { return c.X }

func (c mrfChain) hook(o chains.RoundObserver, abort *atomic.Bool) { c.Obs, c.Abort = o, abort }
func (c cspChain) hook(o chains.RoundObserver, abort *atomic.Bool) { c.Obs, c.Abort = o, abort }
func (b mrfBlock) hook(o chains.RoundObserver, abort *atomic.Bool) { b.Obs, b.Abort = o, abort }
func (b cspBlock) hook(o chains.RoundObserver, abort *atomic.Bool) { b.Obs, b.Abort = o, abort }

// mrfKernels plugs the MRF round kernels into the runtime.
type mrfKernels struct {
	m         *Model
	init      []int
	alg       chains.Algorithm
	opts      chains.Options
	plan      *partition.Plan // nil when unsharded
	transport func(neighbors [][]int) Transport
}

func (k *mrfKernels) newChain() chainStepper {
	return mrfChain{chains.NewSampler(k.m, k.init, 0, k.alg, k.opts)}
}

func (k *mrfKernels) newBlock(width int) blockStepper {
	return mrfBlock{chains.NewSoABlock(k.m, k.alg, chains.Options{DropRule3: k.opts.DropRule3}, width)}
}

func (k *mrfKernels) newEngine() (shardEngine, error) {
	var eng *cluster.Engine
	var err error
	if k.transport != nil {
		eng, err = cluster.NewWithTransport(k.m, k.plan, k.alg, k.opts.DropRule3,
			allShards(k.plan.K), k.transport(k.plan.NeighborLists()))
	} else {
		eng, err = cluster.New(k.m, k.plan, k.alg, k.opts.DropRule3)
	}
	if err != nil {
		return nil, err
	}
	return eng, nil
}

func (k *mrfKernels) newCoupled(seed uint64, o diag.Options) (*diag.Coupled, error) {
	return diag.NewCoupledMRF(k.m, k.init, seed, k.alg, chains.Options{DropRule3: k.opts.DropRule3}, o)
}

// cspKernels plugs the hypergraph LubyGlauber kernels into the runtime.
type cspKernels struct {
	c         *CSPModel
	init      []int
	parallel  int
	plan      *partition.CSPPlan // nil when unsharded
	transport func(neighbors [][]int) Transport
}

func (k *cspKernels) newChain() chainStepper {
	return cspChain{csp.NewChain(k.c, k.init, 0, k.parallel)}
}

func (k *cspKernels) newBlock(width int) blockStepper {
	return cspBlock{csp.NewSoABlock(k.c, width)}
}

func (k *cspKernels) newEngine() (shardEngine, error) {
	var eng *cluster.CSPEngine
	var err error
	if k.transport != nil {
		eng, err = cluster.NewCSPWithTransport(k.c, k.plan, chains.LubyGlauber,
			allShards(k.plan.K), k.transport(k.plan.NeighborLists()))
	} else {
		eng, err = cluster.NewCSP(k.c, k.plan, chains.LubyGlauber)
	}
	if err != nil {
		return nil, err
	}
	return eng, nil
}

func (k *cspKernels) newCoupled(seed uint64, o diag.Options) (*diag.Coupled, error) {
	return diag.NewCoupledCSP(k.c, k.init, seed, o)
}

// allShards lists every shard of a k-shard plan.
func allShards(k int) []int {
	local := make([]int, k)
	for i := range local {
		local[i] = i
	}
	return local
}

// compile finishes compiling a sampler whose kern, label, cfg, n, init
// and rounds are set: it measures a WithRoundsAuto budget and registers
// the draw metrics.
func (rt *drawRuntime) compile() error {
	if rt.cfg.RoundsAuto {
		// Measure the coupling-coalescence budget once, at compile time,
		// under the worst-case cap the compile resolved. The measurement
		// is centralized and deterministic in (model, init, seed, k, cap),
		// so every sampler compiled with these options resolves the same
		// measured count — and a draw at that count is bit-identical to a
		// WithRounds(measured) draw by construction.
		d, err := rt.kern.newCoupled(rt.cfg.Seed, diag.Options{Chains: rt.cfg.Coupling, MaxRounds: rt.rounds})
		if err != nil {
			return err
		}
		rt.capRounds = rt.rounds
		rt.rounds = d.RunToCoalescence()
	}
	rt.mDraws, rt.mDrawNS, rt.roundObs = newDrawMetrics(rt.cfg.Obs, rt.label)
	rt.chainPool.New = func() any { return rt.kern.newChain() }
	return nil
}

// connect places a plan's shards on the WithRemoteWorkers fleet. job
// carries the family's fields (kind, spec, algorithm); connect fills in
// the rest from the compiled sampler.
func (rt *drawRuntime) connect(l *partition.Layout, job remoteJob) error {
	job.shards, job.strategy, job.planSeed = rt.cfg.Shards, rt.cfg.ShardStrategy.String(), rt.cfg.Seed
	job.init, job.addrs = rt.init, rt.cfg.WorkerAddrs
	r, err := newRemoteEngine(job, l, resolveRetry(&rt.cfg), rt.cfg.StandbyAddrs)
	if err != nil {
		return err
	}
	r.setObs(rt.cfg.Obs, rt.cfg.Log)
	rt.remote, rt.shards = r, l.K
	return nil
}

// startEngines pools in-process shard engines for a k-shard plan. One
// engine is built eagerly: it both validates the algorithm and pre-warms
// the pool for the first draw.
func (rt *drawRuntime) startEngines(k int) error {
	eng, err := rt.newEngine()
	if err != nil {
		return err
	}
	rt.engines.New = func() any {
		e, err := rt.newEngine()
		if err != nil {
			// Unreachable: the eager construction above vetted the
			// same arguments.
			panic(err)
		}
		return e
	}
	rt.engines.Put(eng)
	rt.shards = k
	return nil
}

func (rt *drawRuntime) newEngine() (shardEngine, error) {
	eng, err := rt.kern.newEngine()
	if err != nil {
		return nil, err
	}
	eng.SetObserver(rt.observer(nil))
	return eng, nil
}

// Close releases the sampler's external resources — the coordinator's
// control connections when draws run on remote workers. Purely local
// samplers hold nothing that needs closing; Close is safe either way.
func (rt *drawRuntime) Close() error {
	if rt.remote != nil {
		return rt.remote.Close()
	}
	return nil
}

// Rounds returns the per-chain round budget the sampler resolved.
func (rt *drawRuntime) Rounds() int { return rt.rounds }

// CapRounds returns the worst-case budget a WithRoundsAuto compile
// measured under — Rounds() then holds the coupling-measured count.
// 0 when the budget was not auto-measured.
func (rt *drawRuntime) CapRounds() int { return rt.capRounds }

// Shards returns the shard count draws run with (1 when unsharded).
func (rt *drawRuntime) Shards() int { return max(rt.shards, 1) }

// ParallelRounds returns the vertex-parallel worker count each chain's
// rounds run with (1 when rounds are sequential).
func (rt *drawRuntime) ParallelRounds() int { return max(rt.cfg.Parallel, 1) }

// observer returns the round observer a draw runs with: the metrics
// series (nil without WithMetrics), teed with rec when the draw is traced
// (rec non-nil).
func (rt *drawRuntime) observer(rec *obs.RoundRecorder) chains.RoundObserver {
	if rec != nil {
		return &obs.TeeRounds{A: rec, B: rt.roundObs}
	}
	if rt.roundObs == nil {
		return nil
	}
	return rt.roundObs
}

// Draw serves req (see DrawRequest): a batch through the claim loop, or
// one chain — plain, traced or diagnosed. A canceled ctx aborts the draw
// and returns ctx.Err(), never a partial sample: remote draws unblock
// their control reads, sharded draws close their engines, per-chain
// draws and SoA blocks stop at the next round boundary. A diagnosed
// draw checks ctx before it starts; its centralized coupling then runs
// to the end.
func (rt *drawRuntime) Draw(ctx context.Context, req DrawRequest) (*Batch, error) {
	switch {
	case req.K < 0:
		return nil, fmt.Errorf("locsample: a draw needs k >= 0, got %d", req.K)
	case req.Trace && req.Diagnose:
		return nil, fmt.Errorf("locsample: a draw is traced or diagnosed, not both")
	case (req.Trace || req.Diagnose) && req.K > 1:
		return nil, fmt.Errorf("locsample: traced and diagnosed draws run one chain; k must be 0 or 1, got %d", req.K)
	}
	if req.K > 0 && !req.Trace && !req.Diagnose {
		return rt.sampleN(ctx, req.Seed, req.K)
	}
	seed := req.Seed
	if req.K == 1 {
		seed = core.ChainSeed(seed, 0)
	}
	batch, err := rt.newBatch(ctx, 1)
	if err != nil {
		return nil, err
	}
	if req.Diagnose {
		batch.Diagnosis, err = rt.diagnose(seed, req.Probe, batch.Samples[0])
	} else {
		if req.Trace {
			batch.Trace = obs.NewTrace(rt.label + " draw")
		}
		err = rt.draw(ctx, seed, batch)
	}
	if err != nil {
		return nil, err
	}
	return batch, nil
}

// SampleN draws k independent chains with the compiled master seed; see
// SampleNFrom.
func (rt *drawRuntime) SampleN(k int) (*Batch, error) {
	return rt.SampleNFrom(rt.cfg.Seed, k)
}

// SampleNFrom draws k independent chains concurrently, chain i with seed
// ChainSeed(seed, i): Draw with DrawRequest{Seed: seed, K: k}, except
// that k = 0 returns an empty batch. Results are positionally stable, so
// the same call always returns the same Batch however many workers raced
// over it. It does not mutate the sampler, so concurrent calls (the
// serving path, where one compiled sampler answers many requests with
// per-request seeds) are safe.
func (rt *drawRuntime) SampleNFrom(seed uint64, k int) (*Batch, error) {
	if k == 0 {
		return rt.newBatch(nil, 0)
	}
	return rt.Draw(context.Background(), DrawRequest{Seed: seed, K: k})
}

// draw runs one chain at seed into batch.Samples[0]: on the remote fleet,
// on the LOCAL-model runtime, on a pooled shard engine, or on a pooled
// per-chain stepper. With batch.Trace set it records the draw's per-round
// spans and its draw-level span (the LOCAL runtime has no round hooks, so
// only the latter); tracing never perturbs the trajectory. Sharded and
// remote draws fill batch.Shard, LOCAL draws batch.Stats.
func (rt *drawRuntime) draw(ctx context.Context, seed uint64, batch *Batch) error {
	tr, out := batch.Trace, batch.Samples[0]
	start, t0 := time.Now(), tr.Now()
	if rt.remote != nil {
		st, err := rt.remote.draw(ctx, seed, rt.rounds, out, tr)
		if err != nil {
			return err
		}
		batch.Shard = st
		rt.observeDraw(start, 1)
		return nil
	}
	var rec *obs.RoundRecorder
	if tr != nil && rt.replay == nil {
		rec = obs.NewRoundRecorder(rt.Shards(), rt.rounds)
	}
	var err error
	switch {
	case rt.replay != nil:
		batch.Stats, err = rt.replay(seed, out)
	case rt.shards > 0:
		batch.Shard, err = rt.runEngine(ctx, seed, out, rec)
	default:
		var abort atomic.Bool
		stop := ctxWatch(ctx, func() { abort.Store(true) })
		rt.runChain(seed, out, rt.observer(rec), &abort)
		stop()
	}
	if err == nil {
		err = ctxErr(ctx)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		rec.FlushTo(tr, 0)
		span := obs.Span{Name: "draw", PID: 0, TID: 0, StartNS: t0, DurNS: tr.Now() - t0}
		span.SetArg("seed", int64(seed))
		span.SetArg("rounds", int64(rt.rounds))
		span.SetArg("shards", int64(rt.Shards()))
		tr.Add(span)
	}
	rt.observeDraw(start, 1)
	return nil
}

// runChain runs one chain at seed on a pooled per-chain stepper into out,
// reporting rounds to o and stopping at the next round boundary once
// abort is set.
func (rt *drawRuntime) runChain(seed uint64, out []int, o chains.RoundObserver, abort *atomic.Bool) {
	c := rt.chainPool.Get().(chainStepper)
	c.hook(o, abort)
	c.Reset(rt.init, seed)
	c.Run(rt.rounds)
	copy(out, c.state())
	c.hook(nil, nil)
	rt.chainPool.Put(c)
}

// runEngine runs one chain at seed on a pooled shard engine into out,
// teeing its rounds into rec when non-nil. Cancellation closes the
// engine's transport: the lockstep workers fail their next exchange and
// Run returns. A closed or failed engine is poisoned (its transport is
// closed), so it is discarded, never re-pooled.
func (rt *drawRuntime) runEngine(ctx context.Context, seed uint64, out []int, rec *obs.RoundRecorder) (ShardStats, error) {
	eng := rt.engines.Get().(shardEngine)
	eng.SetObserver(rt.observer(rec))
	stop := ctxWatch(ctx, func() { eng.Close() })
	st, err := eng.Run(rt.init, seed, rt.rounds, out)
	stop()
	eng.SetObserver(rt.observer(nil))
	if cerr := ctxErr(ctx); cerr != nil {
		// Cancellation wins over whatever secondary error closing the
		// engine provoked — the caller asked for the abort it got.
		err = cerr
	}
	if err != nil {
		eng.Close()
		return ShardStats{}, err
	}
	rt.engines.Put(eng)
	return st, nil
}

// runBlock runs chains lo..lo+len(dst)-1 as the lanes of one pooled SoA
// block at least width lanes wide, scattering lane c into dst[c]. Lane c
// is bit-identical to the per-chain path at ChainSeed(seed, lo+c).
func (rt *drawRuntime) runBlock(width int, seed uint64, lo int, dst [][]int, abort *atomic.Bool) {
	seeds := make([]uint64, len(dst))
	for c := range seeds {
		seeds[c] = core.ChainSeed(seed, uint64(lo+c))
	}
	b, _ := rt.soaPool.Get().(blockStepper)
	if b == nil || b.MaxWidth() < width {
		// An undersized block is dropped for the collector: widths only
		// grow.
		b = rt.kern.newBlock(width)
	}
	b.hook(rt.observer(nil), abort)
	b.Reset(rt.init, seeds)
	b.Run(rt.rounds)
	b.Scatter(dst)
	b.hook(nil, nil)
	rt.soaPool.Put(b)
}

// diagnose runs one chain at seed into out while a grand coupling runs
// alongside it: WithCoupling chains advance from adversarial initial
// states under the draw's own PRF coins. Chain 0 of the coupling is the
// draw, so the sample is bit-identical to an undiagnosed draw. The
// coupling runs centralized and sequential on every runtime, for the full
// compiled budget.
func (rt *drawRuntime) diagnose(seed uint64, probe diag.Probe, out []int) (*Diagnosis, error) {
	start := time.Now()
	d, err := rt.kern.newCoupled(seed, diag.Options{Chains: rt.cfg.Coupling, MaxRounds: rt.rounds, Probe: probe, Obs: rt.observer(nil)})
	if err != nil {
		return nil, err
	}
	d.Run(rt.rounds)
	copy(out, d.X())
	rt.observeDraw(start, 1)
	return d.Finish(), nil
}

// newBatch allocates a k-chain batch, all samples sharing one flat
// backing array, unless ctx is already done.
func (rt *drawRuntime) newBatch(ctx context.Context, k int) (*Batch, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	batch := &Batch{Samples: make([][]int, k), Rounds: rt.rounds, TheoryRounds: rt.theory}
	n := rt.n
	backing := make([]int, k*n)
	for i := range batch.Samples {
		batch.Samples[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return batch, nil
}

// sampleN draws k ≥ 1 chains, chain i at ChainSeed(seed, i). Remote
// chains run one by one through the coordinator (each already fans out
// across the worker processes); local chains are claimed by a worker
// pool — as SoA block lanes when the batch fills a block and each chain
// runs centralized and sequential, else one chain per claim on the
// LOCAL-model runtime, a pooled stepper or a shard engine. A canceled ctx
// stops the batch and returns ctx.Err(), never partial samples.
func (rt *drawRuntime) sampleN(ctx context.Context, seed uint64, k int) (*Batch, error) {
	batch, err := rt.newBatch(ctx, k)
	if err != nil {
		return nil, err
	}
	if rt.remote != nil {
		for i := 0; i < k; i++ {
			start := time.Now()
			st, err := rt.remote.draw(ctx, core.ChainSeed(seed, uint64(i)), rt.rounds, batch.Samples[i], nil)
			if err != nil {
				return nil, err
			}
			batch.Shard.Add(st)
			rt.observeDraw(start, 1)
		}
		return batch, nil
	}
	workers := rt.workers()
	var abort atomic.Bool
	if rt.replay == nil && rt.shards == 0 && rt.cfg.Parallel <= 1 && soaBatchable(rt.cfg.Algorithm, rt.q) {
		if width := batchWidth(rt.cfg.BatchWidth, k, workers); width > 0 {
			// The tail block runs with its natural lane count: lanes pack
			// at the run width, so no dead lanes are computed.
			batch.SoAWidth = width
			err := claim(ctx, workers, (k+width-1)/width, &abort, func(b int) error {
				start, lo := time.Now(), b*width
				dst := batch.Samples[lo:min(lo+width, k)]
				rt.runBlock(width, seed, lo, dst, &abort)
				rt.observeDraw(start, len(dst))
				return nil
			})
			if err != nil {
				return nil, err
			}
			return batch, nil
		}
	}
	var (
		shardStats []ShardStats
		chainStats []Stats
	)
	if rt.shards > 0 {
		shardStats = make([]ShardStats, k)
	}
	if rt.replay != nil {
		chainStats = make([]Stats, k)
	}
	err = claim(ctx, workers, k, &abort, func(i int) error {
		start, chainSeed := time.Now(), core.ChainSeed(seed, uint64(i))
		var err error
		switch {
		case rt.replay != nil:
			chainStats[i], err = rt.replay(chainSeed, batch.Samples[i])
		case rt.shards > 0:
			shardStats[i], err = rt.runEngine(ctx, chainSeed, batch.Samples[i], nil)
		default:
			rt.runChain(chainSeed, batch.Samples[i], rt.observer(nil), &abort)
		}
		if err != nil {
			return err
		}
		rt.observeDraw(start, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, st := range shardStats {
		batch.Shard.Add(st)
	}
	for _, st := range chainStats {
		batch.Stats.Messages += st.Messages
		batch.Stats.Bytes += st.Bytes
		batch.Stats.MaxMessageBytes = max(batch.Stats.MaxMessageBytes, st.MaxMessageBytes)
		batch.Stats.Rounds = max(batch.Stats.Rounds, st.Rounds)
	}
	return batch, nil
}

// workers resolves the claim pool size: WithWorkers, else GOMAXPROCS
// divided by the goroutines each chain already fans out over — plan.K
// shard workers, or Parallel vertex-parallel phases — so total
// parallelism stays near GOMAXPROCS instead of oversubscribing.
func (rt *drawRuntime) workers() int {
	if rt.cfg.Workers > 0 {
		return rt.cfg.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if rt.shards > 0 {
		return max(1, w/rt.shards)
	}
	return max(1, w/max(rt.cfg.Parallel, 1))
}

// claim runs items 0..n-1 over a pool of at most workers goroutines, each
// claiming the next unclaimed item until none is left. It fails fast: once
// an item errors or ctx is canceled, abort is set, no worker claims
// another item, and pooled chains and blocks stop at their next round
// boundary. A cancel wins over item errors, which closing engines on
// cancel provokes.
func claim(ctx context.Context, workers, n int, abort *atomic.Bool, item func(i int) error) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	stop := ctxWatch(ctx, func() { abort.Store(true) })
	defer stop()
	for w := batchWorkers(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := item(i); err != nil {
					errOnce.Do(func() { runErr = err })
					abort.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cerr := ctxErr(ctx); cerr != nil {
		return cerr
	}
	return runErr
}

// ctxWatch arms f to run on ctx cancellation; the returned stop
// releases the watcher. A nil or non-cancelable ctx arms nothing.
func ctxWatch(ctx context.Context, f func()) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, f)
}

// observeDraw meters `lanes` draws that completed together (one, or the
// lanes of an SoA block): the draw counter advances per chain, the latency
// histogram gets one observation — the block is the unit of work. No-op
// without WithMetrics.
func (rt *drawRuntime) observeDraw(start time.Time, lanes int) {
	if rt.mDraws == nil {
		return
	}
	rt.mDraws.Add(int64(lanes))
	rt.mDrawNS.Observe(time.Since(start).Nanoseconds())
}

// newDrawMetrics registers the sampler-level series under the given
// engine label ("mrf" | "csp"). A nil registry disables them all.
func newDrawMetrics(reg *obs.Registry, engine string) (draws *obs.Counter, drawNS *obs.Histogram, rounds *obs.RoundMetrics) {
	if reg == nil {
		return nil, nil, nil
	}
	draws = reg.Counter("locsample_draws_total", "completed sampler draws", "engine", engine)
	drawNS = reg.Histogram("locsample_draw_seconds", "end-to-end draw latency", 1e-9, "engine", engine)
	rounds = &obs.RoundMetrics{
		ComputeNS: reg.Histogram("locsample_round_compute_seconds", "per-round kernel time", 1e-9, "engine", engine),
		BarrierNS: reg.Histogram("locsample_round_barrier_seconds", "per-round barrier/exchange wait", 1e-9, "engine", engine),
		Flips:     reg.Counter("locsample_round_flips_total", "accepted per-round vertex updates", "engine", engine),
		Rounds:    reg.Counter("locsample_rounds_total", "chain rounds executed", "engine", engine),
	}
	return draws, drawNS, rounds
}

// soaBatchable reports whether a q-spin model under alg runs on SoA
// blocks: alg must have a batch kernel (the round shapes with
// marginal/propose/filter phases; the scan and chromatic baselines stay
// per-chain), and every spin must fit a byte lane.
func soaBatchable(alg chains.Algorithm, q int) bool {
	if q > chains.MaxLaneQ {
		return false
	}
	return alg == chains.Glauber || alg == chains.LubyGlauber || alg == chains.LocalMetropolis
}

// soaWidths are the block widths the auto-picker considers, widest first.
var soaWidths = [...]int{64, 32, 16, 8}

// batchWidth resolves the SoA lane width for a k-chain batch under a
// worker budget, once soaBatchable has admitted the model. explicit is
// Config.BatchWidth: 1 forces the per-chain path, w ≥ 2 pins the width
// (honored whenever the batch has at least w chains), 0 auto-picks the widest block that still cuts the batch into
// at least `workers` blocks — wider blocks amortize the CSR walk harder,
// but a batch with fewer blocks than workers would idle cores. Returns 0
// for "run per-chain".
func batchWidth(explicit, k, workers int) int {
	if explicit == 1 {
		return 0
	}
	if explicit >= 2 {
		if k >= explicit {
			return explicit
		}
		return 0
	}
	for _, w := range soaWidths {
		if k >= w && (k+w-1)/w >= workers {
			return w
		}
	}
	if k >= soaWidths[len(soaWidths)-1] {
		// Fewer blocks than workers at every width: take the narrowest
		// block rather than falling back to per-chain — lane amortization
		// beats perfect occupancy once a block fills.
		return soaWidths[len(soaWidths)-1]
	}
	return 0
}

// batchWorkers clamps the worker pool to the number of claimable work
// items — chains on the per-chain path, blocks on the SoA path — so a
// small batch never spins goroutines that could not claim work. Pinned
// by TestSampleNWorkerPoolClamped.
func batchWorkers(workers, items int) int {
	if workers > items {
		return items
	}
	return workers
}
