// Package cluster runs ONE Markov chain as k shard workers advancing in
// lockstep rounds — the in-process analogue of the paper's message-passing
// network, at shard rather than vertex granularity. Each worker owns a
// partition shard (internal/partition): the states of its owned vertices,
// halo copies of their out-of-shard neighbors, and channels to the
// neighboring shards. A round is
//
//	compute owned updates  →  send boundary states  →  receive halo states,
//
// where the receive acts as the round barrier: no worker starts round r+1
// before every halo value it will read has arrived.
//
// The keystone invariant extends the batch engine's: a sharded draw with
// seed s is bit-identical to the centralized chains.Sampler trajectory at
// the same seed, invariant to shard count and partition strategy. It holds
// because every variate is PRF-keyed by GLOBAL vertex/edge IDs and round
// number — a vertex keeps its randomness no matter which shard owns it —
// and because shard subgraphs preserve the global per-vertex adjacency
// order, so conditional-marginal products multiply in the same
// floating-point order as the centralized sweep. Cut edges are evaluated
// redundantly on both incident shards; both read the same PRF coin and the
// same endpoint states, so they agree without communication (exactly the
// paper's shared-coin trick, §4).
//
// Only the paper's two LOCAL algorithms shard: LubyGlauber and
// LocalMetropolis. The inherently sequential baselines (Glauber,
// SystematicScan, ChromaticGlauber) have no O(log n)-round decomposition
// to exploit.
//
// Boundary states travel over an internal/transport.Transport, so the
// same engine runs all-local (channel transport, New) or as one worker
// process of a cross-process draw (TCP mesh behind NewWithTransport).
//
// The round barrier has two implementations. Below TreeBarrierMinShards
// the workers pairwise exchange boundary frames over the transport
// (all-local engines get the cap-2 double-buffered channel transport —
// deadlock-free by construction; see lockstep.tr). At high all-local shard
// counts that costs every worker one rendezvous per neighbor per
// round, so from TreeBarrierMinShards up the engine switches to a publish
// model: each worker fills its double-buffered outgoing boundary buffers,
// passes one tree-reduce barrier (O(log k) rendezvous depth instead of
// O(deg) per worker), and then reads its halo values directly from its
// neighbors' publish buffers. The barrier's happens-before chain makes the
// reads race-free, and the double buffering lets a worker run one round
// ahead without overwriting a buffer a slow neighbor is still reading —
// the same argument as the channel scheme's capacity-2 invariant.
//
// Everything above the round kernels — the shard run state, the fabric,
// and the Run loop — is written once (lockstep.go) and shared by Engine
// (MRFs) and CSPEngine (weighted local CSPs); each family plugs in only
// its shard round kernels, once per round.
package cluster

import (
	"fmt"

	"locsample/internal/chains"
	"locsample/internal/mrf"
	"locsample/internal/partition"
	"locsample/internal/rng"
	"locsample/internal/transport"
)

// mrfWorker is one hosted MRF shard's run state.
type mrfWorker = worker[*partition.Shard]

// Engine executes sharded draws over a fixed (model, plan, algorithm)
// triple. An Engine is reusable across sequential Run calls but is NOT
// safe for concurrent Runs; callers that serve concurrent draws keep a
// pool of engines (the batch Sampler does).
type Engine struct {
	lockstep[*partition.Shard]

	m         *mrf.MRF
	plan      *partition.Plan
	dropRule3 bool
}

// New compiles an engine hosting every shard of plan. Only LubyGlauber
// and LocalMetropolis are shardable.
func New(m *mrf.MRF, plan *partition.Plan, alg chains.Algorithm, dropRule3 bool) (*Engine, error) {
	local, tr := hostAll(plan.K, plan.NeighborLists)
	return newEngine(m, plan, alg, dropRule3, local, tr)
}

// NewWithTransport compiles an engine hosting only the given shards of
// plan, exchanging boundary states over tr — the worker-process side of
// a cross-process draw, or an all-local engine on a custom (e.g.
// fault-injecting) fabric. The tree-barrier fast path never applies:
// remote neighbors are only reachable through the transport.
func NewWithTransport(m *mrf.MRF, plan *partition.Plan, alg chains.Algorithm, dropRule3 bool, local []int, tr transport.Transport) (*Engine, error) {
	if err := checkHosted("NewWithTransport", plan.K, local, tr); err != nil {
		return nil, err
	}
	return newEngine(m, plan, alg, dropRule3, local, tr)
}

func newEngine(m *mrf.MRF, plan *partition.Plan, alg chains.Algorithm, dropRule3 bool, local []int, tr transport.Transport) (*Engine, error) {
	if alg != chains.LubyGlauber && alg != chains.LocalMetropolis {
		return nil, fmt.Errorf("cluster: %v cannot be sharded (only LubyGlauber and LocalMetropolis decompose into local rounds)", alg)
	}
	if m.G.N() != plan.N {
		return nil, fmt.Errorf("cluster: plan partitions %d vertices, model has %d", plan.N, m.G.N())
	}
	e := &Engine{m: m, plan: plan, dropRule3: dropRule3}
	e.lockstep = newLockstep(plan.K, plan.N, local, tr, alg, m.Q, func(s int) (*partition.Shard, partition.View, int) {
		sh := plan.Shards[s]
		return sh, sh.View, len(sh.Edges)
	})
	switch {
	case alg == chains.LubyGlauber:
		e.round = e.lubyRound
	case m.IsColoringModel():
		e.round = e.coloringRound
	default:
		e.round = e.metropolisRound
	}
	return e, nil
}

// Plan returns the partition the engine runs on.
func (e *Engine) Plan() *partition.Plan { return e.plan }

// lubyRound mirrors chains.LubyGlauberRound on one shard. Luby-step
// priorities are PRF values, so halo priorities are recomputed locally
// instead of communicated; the marginal products run in the global
// adjacency order preserved by the shard CSR. In-place owned updates are
// exact for the same reason as the centralized sweep: the Luby step is an
// independent set, so no resampled vertex reads another resampled vertex.
// Randomness streams through the same partial round keys as the
// centralized kernel (keyed by GLOBAL vertex IDs), and membership goes
// through the shared chains.BetaLocalMax, so the two runtimes cannot drift.
// It returns the number of owned vertices resampled this round.
func (e *Engine) lubyRound(w *mrfWorker, seed uint64, round int) int {
	sh := w.sh
	kb := rng.Key(seed, chains.TagBeta, uint64(round))
	for l, gv := range sh.Global {
		w.beta[l] = kb.Float64(uint64(gv))
	}
	ku := rng.Key(seed, chains.TagUpdate, uint64(round))
	flips := 0
	for v := 0; v < sh.NOwned; v++ {
		if !chains.BetaLocalMax(w.beta, v, sh.Nbr[sh.RowPtr[v]:sh.RowPtr[v+1]]) {
			continue
		}
		if e.marginalInto(w, v) {
			w.x[v] = rng.CategoricalU(w.marg, ku.Float64(uint64(sh.Global[v])))
			flips++
		}
	}
	return flips
}

// marginalInto fills w.marg with owned vertex v's conditional marginal. It
// is mrf.MarginalInto transcribed to shard-local indexing: same zero-skip,
// same per-slot multiplication order (the shard CSR preserves the global
// slot order), same normalization — so the resulting float64s, and hence
// the CategoricalU draw, are bit-identical to the centralized chain's.
func (e *Engine) marginalInto(w *mrfWorker, v int) bool {
	m := e.m
	sh := w.sh
	b := m.VertexB[sh.Global[v]]
	q := m.Q
	out := w.marg
	for c := 0; c < q; c++ {
		out[c] = b[c]
	}
	for t := sh.RowPtr[v]; t < sh.RowPtr[v+1]; t++ {
		a := m.EdgeA[sh.Edges[sh.EdgeSlot[t]].ID]
		xu := w.x[sh.Nbr[t]]
		for c := 0; c < q; c++ {
			if out[c] != 0 {
				out[c] *= a.At(c, xu)
			}
		}
	}
	total := 0.0
	for c := 0; c < q; c++ {
		total += out[c]
	}
	if total <= 0 {
		return false
	}
	inv := 1 / total
	for c := 0; c < q; c++ {
		out[c] *= inv
	}
	return true
}

// metropolisRound mirrors chains.LocalMetropolisRound on one shard.
// Proposals depend only on vertex activities, so halo proposals are
// recomputed locally; cut-edge filters are evaluated redundantly on both
// shards from the shared PRF coin. Proposals route through the same
// mrf.ProposeU cumulative-table kernel and coins through the same partial
// round keys as the centralized chain.
// It returns the number of owned vertices that accepted their proposal.
func (e *Engine) metropolisRound(w *mrfWorker, seed uint64, round int) int {
	m := e.m
	sh := w.sh
	ku := rng.Key(seed, chains.TagUpdate, uint64(round))
	for l, gv := range sh.Global {
		w.prop[l] = m.ProposeU(int(gv), ku.Float64(uint64(gv)))
	}
	kc := rng.Key(seed, chains.TagCoin, uint64(round))
	for le := range sh.Edges {
		ed := &sh.Edges[le]
		p := chains.EdgePassProb(m, int(ed.ID), w.x[ed.U], w.x[ed.V], w.prop[ed.U], w.prop[ed.V], e.dropRule3)
		w.pass[le] = kc.Float64(uint64(ed.ID)) < p
	}
	return e.accept(w)
}

// coloringRound mirrors chains.ColoringLocalMetropolisRound (the §4.2
// three-rule fast path) on one shard.
func (e *Engine) coloringRound(w *mrfWorker, seed uint64, round int) int {
	sh := w.sh
	qf := float64(e.m.Q)
	ku := rng.Key(seed, chains.TagUpdate, uint64(round))
	for l, gv := range sh.Global {
		w.prop[l] = int(ku.Float64(uint64(gv)) * qf)
	}
	for le := range sh.Edges {
		ed := &sh.Edges[le]
		cu, cv := w.prop[ed.U], w.prop[ed.V]
		ok := cu != cv && cv != w.x[ed.U]
		if !e.dropRule3 {
			ok = ok && cu != w.x[ed.V]
		}
		w.pass[le] = ok
	}
	return e.accept(w)
}

// accept applies the LocalMetropolis acceptance rule to the owned band:
// vertex v adopts its proposal iff every incident edge passed. Returns
// the number of acceptances.
func (e *Engine) accept(w *mrfWorker) int {
	sh := w.sh
	flips := 0
	for v := 0; v < sh.NOwned; v++ {
		ok := true
		for t := sh.RowPtr[v]; t < sh.RowPtr[v+1]; t++ {
			if !w.pass[sh.EdgeSlot[t]] {
				ok = false
				break
			}
		}
		if ok {
			w.x[v] = w.prop[v]
			flips++
		}
	}
	return flips
}
