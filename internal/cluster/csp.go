// Sharded CSP runtime: one hypergraph chain (LubyGlauber or
// LocalMetropolis over a weighted local CSP) as k lockstep shard workers,
// the constraint-scope generalization of the MRF engine in cluster.go. The
// keystone invariant carries over unchanged: a sharded CSP draw with seed s
// is bit-identical to the centralized csp round kernels at the same seed,
// invariant to shard count and partition strategy, because
//
//   - every variate is PRF-keyed by GLOBAL vertex/constraint IDs and round
//     number (β and proposals by vertex, check coins by constraint);
//   - each owned vertex's conditional-marginal product multiplies its
//     incident constraints in ascending global constraint order — the
//     centralized kernels' order — through the same compiled-table
//     evaluators (csp.EvalOn / csp.CheckProbOn), so the floats cannot
//     drift;
//   - cut-scope constraints are evaluated redundantly on every incident
//     shard from the same shared PRF coin and the same (owned + halo)
//     states, exactly the paper's shared-coin trick extended from edges to
//     k-ary scopes.
//
// The boundary fabric (transport.Transport below TreeBarrierMinShards or
// when hosting a subset of the shards, publish buffers + tree-reduce for
// all-local high shard counts) and the Run loop are the shared lockstep
// runtime; this file holds only the CSP shard round kernels.
package cluster

import (
	"fmt"

	"locsample/internal/chains"
	"locsample/internal/csp"
	"locsample/internal/partition"
	"locsample/internal/rng"
	"locsample/internal/transport"
)

// cspWorker is one hosted CSP shard's run state.
type cspWorker = worker[*partition.CSPShard]

// CSPEngine executes sharded draws of one hypergraph chain over a fixed
// (CSP, plan, algorithm) triple. Like Engine it is reusable across
// sequential Run calls but not safe for concurrent Runs; callers pool
// engines.
type CSPEngine struct {
	lockstep[*partition.CSPShard]

	c    *csp.CSP
	plan *partition.CSPPlan
}

// NewCSP compiles a sharded engine hosting every shard of plan. Only the
// two hypergraph chains shard.
func NewCSP(c *csp.CSP, plan *partition.CSPPlan, alg chains.Algorithm) (*CSPEngine, error) {
	local, tr := hostAll(plan.K, plan.NeighborLists)
	return newCSPEngine(c, plan, alg, local, tr)
}

// NewCSPWithTransport compiles an engine hosting only the given shards
// of plan over tr — the CSP counterpart of NewWithTransport.
func NewCSPWithTransport(c *csp.CSP, plan *partition.CSPPlan, alg chains.Algorithm, local []int, tr transport.Transport) (*CSPEngine, error) {
	if err := checkHosted("NewCSPWithTransport", plan.K, local, tr); err != nil {
		return nil, err
	}
	return newCSPEngine(c, plan, alg, local, tr)
}

func newCSPEngine(c *csp.CSP, plan *partition.CSPPlan, alg chains.Algorithm, local []int, tr transport.Transport) (*CSPEngine, error) {
	if alg != chains.LubyGlauber && alg != chains.LocalMetropolis {
		return nil, fmt.Errorf("cluster: %v cannot be sharded over a CSP (only the hypergraph LubyGlauber and LocalMetropolis chains decompose into local rounds)", alg)
	}
	if c.N != plan.N {
		return nil, fmt.Errorf("cluster: plan partitions %d vertices, CSP has %d", plan.N, c.N)
	}
	e := &CSPEngine{c: c, plan: plan}
	e.lockstep = newLockstep(plan.K, plan.N, local, tr, alg, c.Q, func(s int) (*partition.CSPShard, partition.View, int) {
		sh := plan.Shards[s]
		return sh, sh.View, len(sh.ConID)
	})
	for _, s := range local {
		e.ws[s].eval = make([]int, 3*c.MaxArity())
	}
	if alg == chains.LubyGlauber {
		e.round = e.lubyRound
	} else {
		e.round = e.metropolisRound
	}
	return e, nil
}

// Plan returns the partition the engine runs on.
func (e *CSPEngine) Plan() *partition.CSPPlan { return e.plan }

// lubyRound mirrors csp.LubyGlauberRoundPRF on one shard. Luby-step
// priorities are PRF values, so halo priorities are recomputed locally
// instead of communicated; membership uses the shared strict-inequality
// comparison (chains.BetaLocalMax over shard-local Γ rows). In-place owned
// updates are exact because the Luby step over the constraint hypergraph is
// strongly independent: no resampled vertex shares a constraint with —
// hence reads — another resampled vertex.
// It returns the number of owned vertices resampled this round.
func (e *CSPEngine) lubyRound(w *cspWorker, seed uint64, round int) int {
	sh := w.sh
	kb := rng.Key(seed, csp.TagBeta, uint64(round))
	for l, gv := range sh.Global {
		w.beta[l] = kb.Float64(uint64(gv))
	}
	ku := rng.Key(seed, csp.TagUpdate, uint64(round))
	flips := 0
	for v := 0; v < sh.NOwned; v++ {
		if !chains.BetaLocalMax(w.beta, v, sh.Nbr[sh.NbrPtr[v]:sh.NbrPtr[v+1]]) {
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
// is csp.MarginalInto transcribed to shard-local indexing: same zero-skip,
// same ascending-global-constraint multiplication order (the Vcon CSR
// preserves it), same evaluators, same normalization — so the resulting
// float64s, and hence the CategoricalU draw, are bit-identical to the
// centralized kernel's.
func (e *CSPEngine) marginalInto(w *cspWorker, v int) bool {
	c := e.c
	sh := w.sh
	b := c.VertexB[sh.Global[v]]
	q := c.Q
	out := w.marg
	saved := w.x[v]
	total := 0.0
	for a := 0; a < q; a++ {
		wt := b[a]
		if wt > 0 {
			w.x[v] = a
			for t := sh.VconPtr[v]; t < sh.VconPtr[v+1]; t++ {
				slot := sh.Vcon[t]
				scope := sh.ConScope[sh.ConPtr[slot]:sh.ConPtr[slot+1]]
				wt *= c.EvalOn(int(sh.ConID[slot]), w.x, scope, w.eval)
				if wt == 0 {
					break
				}
			}
		}
		out[a] = wt
		total += wt
	}
	w.x[v] = saved
	if total <= 0 {
		return false
	}
	inv := 1 / total
	for a := 0; a < q; a++ {
		out[a] *= inv
	}
	return true
}

// metropolisRound mirrors csp.LocalMetropolisRoundPRF on one shard.
// Proposals depend only on vertex activities, so halo proposals are
// recomputed locally through the same cumulative-table draw; cut-scope
// checks are evaluated redundantly on every incident shard from the shared
// PRF coin keyed by the global constraint ID.
// It returns the number of owned vertices that accepted their proposal.
func (e *CSPEngine) metropolisRound(w *cspWorker, seed uint64, round int) int {
	c := e.c
	sh := w.sh
	ku := rng.Key(seed, csp.TagUpdate, uint64(round))
	for l, gv := range sh.Global {
		dist, cum := c.PropRow(int(gv))
		w.prop[l] = rng.CategoricalCumU(dist, cum, ku.Float64(uint64(gv)))
	}
	kc := rng.Key(seed, csp.TagCoin, uint64(round))
	for slot := range sh.ConID {
		ci := sh.ConID[slot]
		scope := sh.ConScope[sh.ConPtr[slot]:sh.ConPtr[slot+1]]
		p := c.CheckProbOn(int(ci), w.x, w.prop, scope, w.eval)
		w.pass[slot] = kc.Float64(uint64(ci)) < p
	}
	flips := 0
	for v := 0; v < sh.NOwned; v++ {
		ok := true
		for t := sh.VconPtr[v]; t < sh.VconPtr[v+1]; t++ {
			if !w.pass[sh.Vcon[t]] {
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
