// CSP plans: the constraint-scope generalization of the graph partition.
// The halo band of a shard is the hypergraph neighborhood of its owned
// vertices — every vertex sharing a constraint with an owned vertex — which
// is exactly the radius-1 state a shard needs to evaluate its owned
// vertices' conditional marginals and every constraint containing them.
// Constraints are replicated onto every shard whose owned set their scope
// intersects (cut-scope checks are evaluated redundantly from shared PRF
// coins, like cut edges in the MRF runtime); for accounting purposes a
// constraint is OWNED by the shard owning its minimum scope vertex, so
// CutConstraints counts each spanning scope once.
package partition

import (
	"sort"

	"locsample/internal/csp"
)

// CSPShard is one worker's slice of a CSP: its View plus the local
// constraint tables of its owned vertices.
type CSPShard struct {
	View

	// NbrPtr/Nbr is the hypergraph-neighborhood CSR of the owned rows:
	// owned vertex v's Γ(v) occupies Nbr[NbrPtr[v]:NbrPtr[v+1]] as local
	// indices, in the global Γ order (ascending global ID).
	NbrPtr []int32
	Nbr    []int32

	// ConID lists every constraint whose scope touches an owned vertex,
	// ascending by global constraint index; ConID[slot] keys the shared PRF
	// coin and the compiled table. ConPtr/ConScope hold the scopes as local
	// vertex indices, in the constraint's own scope order.
	ConID    []int32
	ConPtr   []int32
	ConScope []int32

	// VconPtr/Vcon is the owned-vertex → local-constraint-slot CSR, in
	// ascending global constraint order — the multiplication order of the
	// centralized conditional marginal.
	VconPtr []int32
	Vcon    []int32
}

// CSPPlan is a compiled partition of a CSP's vertices into k shards.
type CSPPlan struct {
	Layout
	// Shards are the per-worker slices.
	Shards []*CSPShard
	// CutConstraints counts constraints whose scope spans several owners
	// (each is checked redundantly on every incident shard).
	CutConstraints int
}

// BuildCSP compiles a k-way partition of CSP c over its constraint
// hypergraph. It requires 1 <= k <= c.N, so every shard owns at least one
// vertex. The result is a pure function of the arguments; like the MRF
// planner, which partition a chain runs on never affects its output, only
// its boundary traffic.
func BuildCSP(c *csp.CSP, k int, strat Strategy, seed uint64) (*CSPPlan, error) {
	l, views, err := newLayout(c.N, k, strat, seed, func(v int32) []int32 { return c.Neighborhood(int(v)) })
	if err != nil {
		return nil, err
	}
	p := &CSPPlan{Layout: l, Shards: make([]*CSPShard, k)}

	// Scratch shared across shards: localOf is only read at indices set
	// while building the current shard; constraint stamps carry a shard
	// epoch so no per-shard reset is needed.
	localOf := make([]int32, l.N)
	conStamp := make([]int32, len(c.Cons))
	conSlot := make([]int32, len(c.Cons))
	for i := range conStamp {
		conStamp[i] = -1
	}
	for s := range views {
		sh := &CSPShard{View: views[s]}
		sh.index(localOf)
		owned := l.Owned[s]

		// Hypergraph-neighborhood CSR over owned rows.
		sh.NbrPtr = make([]int32, len(owned)+1)
		for i, v := range owned {
			sh.NbrPtr[i+1] = sh.NbrPtr[i] + int32(len(c.Neighborhood(int(v))))
		}
		sh.Nbr = make([]int32, sh.NbrPtr[len(owned)])
		pos := 0
		for _, v := range owned {
			for _, u := range c.Neighborhood(int(v)) {
				sh.Nbr[pos] = localOf[u]
				pos++
			}
		}

		// Local constraint set: every constraint touching an owned vertex,
		// ascending by global index (all scope members are local — a scope
		// member of a constraint with an owned member is in Γ(owned) ∪
		// owned).
		var cons []int32
		for _, v := range owned {
			for _, ci := range c.ConstraintsOf(int(v)) {
				if conStamp[ci] != int32(s) {
					conStamp[ci] = int32(s)
					cons = append(cons, ci)
				}
			}
		}
		sort.Slice(cons, func(i, j int) bool { return cons[i] < cons[j] })
		sh.ConID = cons
		sh.ConPtr = make([]int32, len(cons)+1)
		for slot, ci := range cons {
			conSlot[ci] = int32(slot)
			sh.ConPtr[slot+1] = sh.ConPtr[slot] + int32(len(c.Cons[ci].Scope))
		}
		sh.ConScope = make([]int32, sh.ConPtr[len(cons)])
		pos = 0
		for _, ci := range cons {
			for _, u := range c.Cons[ci].Scope {
				sh.ConScope[pos] = localOf[u]
				pos++
			}
		}

		// Owned-vertex incidence, ascending global constraint order (the
		// global ConstraintsOf order, mapped through the slot table).
		sh.VconPtr = make([]int32, len(owned)+1)
		for i, v := range owned {
			sh.VconPtr[i+1] = sh.VconPtr[i] + int32(len(c.ConstraintsOf(int(v))))
		}
		sh.Vcon = make([]int32, sh.VconPtr[len(owned)])
		pos = 0
		for _, v := range owned {
			for _, ci := range c.ConstraintsOf(int(v)) {
				sh.Vcon[pos] = conSlot[ci]
				pos++
			}
		}

		p.Shards[s] = sh
	}
	for i := range c.Cons {
		scope := c.Cons[i].Scope
		first := p.Owner[scope[0]]
		for _, u := range scope[1:] {
			if p.Owner[u] != first {
				p.CutConstraints++
				break
			}
		}
	}
	return p, nil
}
