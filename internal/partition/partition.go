// Package partition splits a graph into k vertex-disjoint shards for the
// sharded single-chain runtime (internal/cluster). A Plan is a compiled,
// immutable description of the split:
//
//   - every vertex is owned by exactly one shard;
//   - each shard carries a CSR subgraph over its owned vertices whose
//     per-vertex slot order is exactly the global graph's adjacency order
//     (so shard-local products of edge activities multiply in the same
//     floating-point order as the centralized chains — a prerequisite for
//     bit-identical trajectories);
//   - halo vertices — out-of-shard neighbors of owned vertices — get local
//     copies, and symmetric exchange maps say which owned values each shard
//     sends to, and which halo slots it receives from, every other shard.
//
// Plans are pure functions of (graph, k, strategy, seed): building the same
// partition twice yields identical plans, so a compiled sampler's shard
// layout is as reproducible as its chains. Which partition a chain runs on
// never affects its output (the cluster engine keys all randomness by
// global vertex/edge IDs); strategy and seed only steer how much boundary
// traffic the run pays.
package partition

import (
	"fmt"

	"locsample/internal/graph"
)

// TagGrow keys the PRF that orders BFS growth seeds. It is disjoint from
// the chain/batch tag spaces, so partition randomness never collides with
// any variate a chain consumes.
const TagGrow = 0x5001

// Strategy selects how vertices are assigned to shards.
type Strategy int

const (
	// Range assigns contiguous, balanced vertex-ID blocks: shard s owns
	// [s·n/k, (s+1)·n/k). On generators that number vertices coherently
	// (grids row-major, paths in order) this yields small boundaries with
	// zero preprocessing.
	Range Strategy = iota
	// BFS grows shards by seeded breadth-first search: growth seeds are
	// drawn in PRF order, each shard claims a balanced share of the
	// remaining vertices by BFS from its seed (restarting on exhausted
	// components), producing connected, low-cut regions on graphs whose
	// vertex numbering carries no locality.
	BFS
)

// String returns the strategy's wire name.
func (s Strategy) String() string {
	switch s {
	case Range:
		return "range"
	case BFS:
		return "bfs"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a wire name to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "range", "":
		return Range, nil
	case "bfs":
		return BFS, nil
	default:
		return 0, fmt.Errorf("partition: unknown strategy %q", s)
	}
}

// Edge is one edge of a shard subgraph: local endpoint indices in the
// global edge's U/V orientation (the LocalMetropolis filter is not
// symmetric in its endpoints), plus the global edge ID that keys the
// shared PRF coin and the activity matrix. Cut edges appear in both
// incident shards with the same ID, so both evaluate the same filter.
type Edge struct {
	U, V int32
	ID   int32
}

// Shard is one worker's slice of the graph: its View plus the CSR
// subgraph of its owned vertices.
type Shard struct {
	View

	// RowPtr/Nbr/EdgeSlot is the CSR adjacency of the owned vertices
	// (owned rows only): owned vertex v's slots are [RowPtr[v],
	// RowPtr[v+1]), listing neighbors as local indices and incident edges
	// as indices into Edges, in the global graph's per-vertex slot order.
	RowPtr   []int32
	Nbr      []int32
	EdgeSlot []int32
	// Edges lists every edge with at least one owned endpoint, once.
	Edges []Edge
}

// Plan is a compiled partition of a graph into k shards.
type Plan struct {
	Layout
	// Shards are the per-worker subgraphs.
	Shards []*Shard
	// CutEdges counts edges whose endpoints live on different shards.
	CutEdges int
}

// Build compiles a k-way partition of g. It requires 1 <= k <= g.N(), so
// every shard owns at least one vertex. The result is a pure function of
// the arguments.
func Build(g *graph.Graph, k int, strat Strategy, seed uint64) (*Plan, error) {
	l, views, err := newLayout(g.N(), k, strat, seed, func(v int32) []int32 { return g.Adj(int(v)) })
	if err != nil {
		return nil, err
	}
	p := &Plan{Layout: l, Shards: make([]*Shard, k)}

	// Scratch shared across shards: localOf is only read at indices set
	// while building the current shard (every referenced endpoint is owned
	// or halo there); edge stamps carry a shard epoch so no per-shard reset
	// is needed.
	localOf := make([]int32, l.N)
	edgeStamp := make([]int32, g.M())
	edgeLocal := make([]int32, g.M())
	for i := range edgeStamp {
		edgeStamp[i] = -1
	}
	for s := range views {
		sh := &Shard{View: views[s]}
		sh.index(localOf)
		owned := l.Owned[s]

		// CSR over owned rows in the global slot order.
		sh.RowPtr = make([]int32, len(owned)+1)
		for i, v := range owned {
			sh.RowPtr[i+1] = sh.RowPtr[i] + int32(g.Deg(int(v)))
		}
		sh.Nbr = make([]int32, sh.RowPtr[len(owned)])
		sh.EdgeSlot = make([]int32, sh.RowPtr[len(owned)])
		pos := 0
		for _, v := range owned {
			adj, inc := g.Adj(int(v)), g.Inc(int(v))
			for t := range adj {
				id := inc[t]
				if edgeStamp[id] != int32(s) {
					edgeStamp[id] = int32(s)
					edgeLocal[id] = int32(len(sh.Edges))
					ge := g.Edge(int(id))
					sh.Edges = append(sh.Edges, Edge{U: localOf[ge.U], V: localOf[ge.V], ID: id})
				}
				sh.Nbr[pos] = localOf[adj[t]]
				sh.EdgeSlot[pos] = edgeLocal[id]
				pos++
			}
		}
		p.Shards[s] = sh
	}
	for _, e := range g.Edges() {
		if p.Owner[e.U] != p.Owner[e.V] {
			p.CutEdges++
		}
	}
	return p, nil
}

// AssignShards places k shards on w worker processes contiguously and
// balanced: shard s goes to process s*w/k, so every process hosts a
// consecutive run of ⌊k/w⌋ or ⌈k/w⌉ shards and (for w ≤ k) no process
// is empty. Contiguity matters for the Range strategy, where
// consecutive shards own consecutive vertex bands and are each other's
// likeliest neighbors.
func AssignShards(k, w int) []int {
	assign := make([]int, k)
	for s := range assign {
		assign[s] = s * w / k
	}
	return assign
}
