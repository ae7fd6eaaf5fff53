package partition

import (
	"fmt"
	"slices"
	"sort"

	"locsample/internal/rng"
)

// View is the part of a shard that does not depend on the model family:
// its local→global vertex map and its boundary exchange maps. Local
// vertex indices come in two bands: [0, NOwned) are the owned vertices in
// ascending global order, [NOwned, len(Global)) are halo copies in
// ascending global order. Shard and CSPShard embed it.
type View struct {
	// ID is the shard's index in the plan.
	ID int
	// NOwned is the number of vertices this shard owns.
	NOwned int
	// Global maps local vertex indices to global vertex IDs.
	Global []int32

	// SendTo[j] lists the owned local indices whose post-round values this
	// shard sends to shard j; RecvFrom[j] lists the halo local indices this
	// shard overwrites with shard j's message. The maps are symmetric and
	// aligned: shard j's SendTo[i][t] and shard i's RecvFrom[j][t] name the
	// same global vertex.
	SendTo   [][]int32
	RecvFrom [][]int32
	// Neighbors lists the shards this shard exchanges with, ascending.
	Neighbors []int
}

// NLocal returns the number of local vertices (owned + halo).
func (v *View) NLocal() int { return len(v.Global) }

// NHalo returns the number of halo copies this shard holds.
func (v *View) NHalo() int { return len(v.Global) - v.NOwned }

// index points localOf at this shard's local indices: afterwards
// localOf[Global[i]] == i for every owned and halo vertex.
func (v *View) index(localOf []int32) {
	for i, g := range v.Global {
		localOf[g] = int32(i)
	}
}

// Layout is the part of a plan that does not depend on the model family:
// who owns which vertex, and how much state crosses shard boundaries.
// Plan and CSPPlan embed it.
type Layout struct {
	// K is the shard count.
	K int
	// Strategy and Seed are the inputs the ownership assignment was grown
	// from (Seed only matters for BFS).
	Strategy Strategy
	Seed     uint64
	// N is the partitioned model's vertex count.
	N int
	// Owner[v] is the shard owning global vertex v.
	Owner []int32
	// Owned[s] is shard s's owned band, ascending (it aliases the shard's
	// Global[:NOwned]).
	Owned [][]int32
	// HaloCopies is the total number of halo slots across all shards — the
	// number of vertex states crossing shard boundaries per exchange.
	HaloCopies int

	neighbors [][]int
}

// newLayout assigns owners and builds every shard's view over the radius-1
// neighborhood adj: graph neighbors for an MRF, Γ(v) for a CSP (the paper's
// §2.2 reads an MRF as a CSP with arity-2 constraints, so one halo rule
// serves both). A shard's halo band is the out-of-shard vertices adj
// reaches from its owned band. It requires 1 <= k <= n, so every shard
// owns at least one vertex, and is a pure function of its arguments.
func newLayout(n, k int, strat Strategy, seed uint64, adj func(v int32) []int32) (Layout, []View, error) {
	if k < 1 || k > n {
		return Layout{}, nil, fmt.Errorf("partition: need 1 <= shards <= %d vertices, got %d", n, k)
	}
	owner := make([]int32, n)
	switch strat {
	case Range:
		for v := 0; v < n; v++ {
			owner[v] = int32(v * k / n)
		}
	case BFS:
		growBFS(n, adj, k, seed, owner)
	default:
		return Layout{}, nil, fmt.Errorf("partition: unknown strategy %v", strat)
	}
	l := Layout{K: k, Strategy: strat, Seed: seed, N: n, Owner: owner,
		Owned: make([][]int32, k), neighbors: make([][]int, k)}
	counts := make([]int, k)
	for _, o := range owner {
		counts[o]++
	}
	for s := range l.Owned {
		l.Owned[s] = make([]int32, 0, counts[s])
	}
	for v, o := range owner {
		l.Owned[o] = append(l.Owned[o], int32(v)) // ascending global order
	}

	views := make([]View, k)
	for s := range views {
		owned := l.Owned[s]
		// Halo: out-of-shard neighbors of owned vertices, deduplicated and
		// sorted ascending.
		var halo []int32
		for _, v := range owned {
			for _, u := range adj(v) {
				if owner[u] != int32(s) {
					halo = append(halo, u)
				}
			}
		}
		slices.Sort(halo)
		halo = slices.Compact(halo)
		global := make([]int32, 0, len(owned)+len(halo))
		global = append(append(global, owned...), halo...)
		views[s] = View{ID: s, NOwned: len(owned), Global: global,
			SendTo: make([][]int32, k), RecvFrom: make([][]int32, k)}
		l.Owned[s] = global[:len(owned)]
		l.HaloCopies += len(halo)
	}

	// Exchange maps. Iterating receivers in shard order and halo slots in
	// ascending global order appends to SendTo and RecvFrom in lockstep, so
	// the two sides of every channel agree position-by-position.
	for s := range views {
		sh := &views[s]
		for h := sh.NOwned; h < len(sh.Global); h++ {
			u := sh.Global[h]
			j := owner[u]
			js := &views[j]
			lu := int32(sort.Search(js.NOwned, func(i int) bool { return js.Global[i] >= u }))
			js.SendTo[s] = append(js.SendTo[s], lu)
			sh.RecvFrom[j] = append(sh.RecvFrom[j], int32(h))
		}
	}
	for s := range views {
		sh := &views[s]
		for j := 0; j < k; j++ {
			if len(sh.SendTo[j]) > 0 || len(sh.RecvFrom[j]) > 0 {
				sh.Neighbors = append(sh.Neighbors, j)
			}
		}
		l.neighbors[s] = sh.Neighbors
	}
	return l, views, nil
}

// growBFS assigns owners by seeded breadth-first growth over an arbitrary
// adjacency (graph edges for MRF plans, hypergraph neighborhoods Γ(v) for
// CSP plans). Vertices are ranked once by PRF(seed, TagGrow, v) (ties by
// ID); each shard starts from the best-ranked unassigned vertex and claims
// its balanced share of the remaining vertices by BFS, restarting from the
// next-ranked unassigned vertex whenever its frontier exhausts a component.
// Deterministic: the rank order, the FIFO frontier, and the adjacency order
// leave no choice to scheduling.
func growBFS(n int, adj func(int32) []int32, k int, seed uint64, owner []int32) {
	for v := range owner {
		owner[v] = -1
	}
	ranked := make([]int32, n)
	key := make([]uint64, n)
	for v := 0; v < n; v++ {
		ranked[v] = int32(v)
		key[v] = rng.PRF(seed, TagGrow, uint64(v))
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if key[a] != key[b] {
			return key[a] < key[b]
		}
		return a < b
	})
	cursor := 0 // next candidate growth seed in ranked order
	assigned := 0
	queue := make([]int32, 0, n)
	for s := 0; s < k; s++ {
		target := (n - assigned + (k - s) - 1) / (k - s) // balanced share
		claimed := 0
		for claimed < target {
			for owner[ranked[cursor]] != -1 {
				cursor++
			}
			start := ranked[cursor]
			owner[start] = int32(s)
			claimed++
			queue = append(queue[:0], start)
			for len(queue) > 0 && claimed < target {
				v := queue[0]
				queue = queue[1:]
				for _, u := range adj(v) {
					if owner[u] != -1 {
						continue
					}
					owner[u] = int32(s)
					claimed++
					queue = append(queue, u)
					if claimed >= target {
						break
					}
				}
			}
		}
		assigned += claimed
	}
}

// NeighborLists returns the plan's shard adjacency (NeighborLists()[s]
// lists the shards s exchanges boundary states with) in the shape the
// transport constructors take. The rows alias the shards' neighbor
// slices; callers must not mutate them.
func (l *Layout) NeighborLists() [][]int {
	return append([][]int(nil), l.neighbors...)
}

// Slots returns, for each of procs worker processes hosting the shards as
// assign places them (see AssignShards), the global vertices whose states
// that process reports, in order: its shards ascending, each shard's owned
// band ascending. A worker ships its result states in this order, and the
// coordinator reassembles the configuration by it.
func (l *Layout) Slots(assign []int, procs int) [][]int {
	slots := make([][]int, procs)
	for s, p := range assign {
		for _, v := range l.Owned[s] {
			slots[p] = append(slots[p], int(v))
		}
	}
	return slots
}
