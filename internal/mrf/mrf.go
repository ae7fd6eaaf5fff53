// Package mrf implements Markov random fields (spin systems) exactly as
// defined in §2.2 of the paper: a graph G(V,E), a spin domain [q], a
// non-negative symmetric q×q edge activity A_e for every edge, and a
// non-negative q-vector vertex activity b_v for every vertex. The Gibbs
// distribution µ assigns each configuration σ ∈ [q]^V probability
// proportional to
//
//	w(σ) = Π_{e=uv∈E} A_e(σ_u,σ_v) · Π_{v∈V} b_v(σ_v).      (Eq. 1)
//
// The package provides the conditional marginals of Eq. (2) (the Glauber
// resampling distribution), the normalized activities Ã_e used by the
// LocalMetropolis filter, the standard models (colorings, list colorings,
// hardcore, Ising, Potts, vertex cover), and Dobrushin-condition helpers.
package mrf

import (
	"fmt"
	"math"

	"locsample/internal/graph"
	"locsample/internal/rng"
)

// Mat is a dense q×q matrix of non-negative activities stored row-major.
type Mat struct {
	Q int
	A []float64
}

// NewMat returns a zero q×q matrix.
func NewMat(q int) *Mat {
	return &Mat{Q: q, A: make([]float64, q*q)}
}

// At returns entry (i, j).
func (m *Mat) At(i, j int) float64 { return m.A[i*m.Q+j] }

// Set assigns entry (i, j).
func (m *Mat) Set(i, j int, v float64) { m.A[i*m.Q+j] = v }

// Max returns the maximum entry.
func (m *Mat) Max() float64 {
	best := math.Inf(-1)
	for _, v := range m.A {
		if v > best {
			best = v
		}
	}
	return best
}

// IsSymmetric reports whether the matrix is symmetric.
func (m *Mat) IsSymmetric() bool {
	for i := 0; i < m.Q; i++ {
		for j := i + 1; j < m.Q; j++ {
			if m.At(i, j) != m.At(j, i) {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Q)
	copy(c.A, m.A)
	return c
}

// MRF is a Markov random field on a network. All fields are read-only after
// construction via New.
type MRF struct {
	G *graph.Graph
	Q int
	// EdgeA[id] is the activity matrix of edge id.
	EdgeA []*Mat
	// VertexB[v] is the activity vector of vertex v (length Q).
	VertexB [][]float64
	// edgeNorm[id] = EdgeA[id] scaled so its maximum entry is 1 (the Ã_e of
	// Algorithm 2); precomputed for the LocalMetropolis filter.
	edgeNorm []*Mat
	// prop is the flat n×q table of normalized vertex activities (the
	// LocalMetropolis proposal distributions, Algorithm 2 line 4),
	// precomputed so the chains' inner loops skip the per-round
	// normalization; row v is prop[v*q : (v+1)*q].
	prop []float64
	// propCum is prop's left-to-right running-sum table (same layout):
	// precomputing it once lets every proposal draw binary-search via
	// rng.CategoricalCumU instead of linearly re-summing the row —
	// bit-identical indices, O(log q) instead of O(q) at large q.
	propCum []float64
	// rowPtr/nbr/inc alias the graph's flat CSR adjacency (graph.CSR). The
	// marginal kernel walks them directly instead of fetching the per-vertex
	// Adj/Inc slice headers on the n-sweep hot paths.
	rowPtr, nbr, inc []int32
	// coloring memoizes IsColoringModel: the answer is an O(m·q²)
	// activity scan, and samplers consult it per construction — serving
	// paths that build a chain per draw were paying the scan per draw.
	coloring bool
}

// New validates the activities and assembles an MRF. Every edge matrix must
// be q×q, symmetric, non-negative, and not identically zero; every vertex
// vector must have length q, be non-negative, and have positive total mass.
func New(g *graph.Graph, q int, edgeA []*Mat, vertexB [][]float64) (*MRF, error) {
	if q < 2 {
		return nil, fmt.Errorf("mrf: need q >= 2, got %d", q)
	}
	if len(edgeA) != g.M() {
		return nil, fmt.Errorf("mrf: %d edge activities for %d edges", len(edgeA), g.M())
	}
	if len(vertexB) != g.N() {
		return nil, fmt.Errorf("mrf: %d vertex activities for %d vertices", len(vertexB), g.N())
	}
	// Validate each DISTINCT matrix once: constructors alias one activity
	// across all edges, and the O(q²) scans below would otherwise run per
	// edge ID — minutes of redundant work at 10⁶⁺ edges.
	checked := make(map[*Mat]bool)
	for id, a := range edgeA {
		if checked[a] {
			continue
		}
		if a.Q != q {
			return nil, fmt.Errorf("mrf: edge %d activity is %dx%d, want %dx%d", id, a.Q, a.Q, q, q)
		}
		if !a.IsSymmetric() {
			return nil, fmt.Errorf("mrf: edge %d activity not symmetric", id)
		}
		max := a.Max()
		if max <= 0 {
			return nil, fmt.Errorf("mrf: edge %d activity identically zero", id)
		}
		for _, v := range a.A {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mrf: edge %d activity has invalid entry %v", id, v)
			}
		}
		checked[a] = true
	}
	for v, b := range vertexB {
		if len(b) != q {
			return nil, fmt.Errorf("mrf: vertex %d activity has length %d, want %d", v, len(b), q)
		}
		total := 0.0
		for _, x := range b {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("mrf: vertex %d activity has invalid entry %v", v, x)
			}
			total += x
		}
		if total <= 0 {
			return nil, fmt.Errorf("mrf: vertex %d activity has zero mass", v)
		}
	}
	m := &MRF{G: g, Q: q, EdgeA: edgeA, VertexB: vertexB}
	// Normalize each DISTINCT activity matrix once and share the result:
	// the model constructors alias one matrix across all edges (a uniform
	// coloring on 10⁶ edges holds one q×q table, not 10⁶), and cloning per
	// edge ID would turn that into m·q² memory — hundreds of GB at the
	// sharded runtime's target scale. edgeNorm entries are read-only.
	m.edgeNorm = make([]*Mat, len(edgeA))
	normOf := make(map[*Mat]*Mat)
	for id, a := range edgeA {
		norm, ok := normOf[a]
		if !ok {
			norm = a.Clone()
			max := a.Max()
			for i := range norm.A {
				norm.A[i] /= max
			}
			normOf[a] = norm
		}
		m.edgeNorm[id] = norm
	}
	m.prop = make([]float64, g.N()*q)
	m.propCum = make([]float64, g.N()*q)
	for v := 0; v < g.N(); v++ {
		row := m.prop[v*q : (v+1)*q]
		b := vertexB[v]
		total := 0.0
		for c := 0; c < q; c++ {
			row[c] = b[c]
			total += b[c]
		}
		inv := 1 / total
		for c := 0; c < q; c++ {
			row[c] *= inv
		}
		rng.CumSumInto(row, m.propCum[v*q:(v+1)*q])
	}
	m.rowPtr, m.nbr, m.inc = g.CSR()
	m.coloring = m.isColoringModel()
	return m, nil
}

// MustNew is New, panicking on error. Intended for the model constructors
// in this package, whose inputs are valid by construction.
func MustNew(g *graph.Graph, q int, edgeA []*Mat, vertexB [][]float64) *MRF {
	m, err := New(g, q, edgeA, vertexB)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the number of vertices.
func (m *MRF) N() int { return m.G.N() }

// NormalizedEdge returns Ã_e = A_e / max(A_e) for the given edge ID. The
// caller must not modify it: edges sharing an activity matrix share the
// normalized table.
func (m *MRF) NormalizedEdge(id int) *Mat { return m.edgeNorm[id] }

// Weight returns w(σ) per Eq. (1). Zero means infeasible.
func (m *MRF) Weight(sigma []int) float64 {
	w := 1.0
	for id, e := range m.G.Edges() {
		w *= m.EdgeA[id].At(sigma[e.U], sigma[e.V])
		if w == 0 {
			return 0
		}
	}
	for v := 0; v < m.G.N(); v++ {
		w *= m.VertexB[v][sigma[v]]
		if w == 0 {
			return 0
		}
	}
	return w
}

// LogWeight returns ln w(σ), or -Inf for infeasible configurations. Use it
// on large graphs where Weight would underflow.
func (m *MRF) LogWeight(sigma []int) float64 {
	lw := 0.0
	for id, e := range m.G.Edges() {
		a := m.EdgeA[id].At(sigma[e.U], sigma[e.V])
		if a == 0 {
			return math.Inf(-1)
		}
		lw += math.Log(a)
	}
	for v := 0; v < m.G.N(); v++ {
		b := m.VertexB[v][sigma[v]]
		if b == 0 {
			return math.Inf(-1)
		}
		lw += math.Log(b)
	}
	return lw
}

// Feasible reports whether w(σ) > 0.
func (m *MRF) Feasible(sigma []int) bool {
	return m.Weight(sigma) > 0
}

// MarginalInto fills out (length Q) with the conditional marginal
// µ_v(· | X_{Γ(v)}) of Eq. (2):
//
//	µ_v(c | X) ∝ b_v(c) · Π_{u∈Γ(v)} A_{uv}(c, X_u),
//
// normalized to sum to 1. It returns false when the total mass is zero
// (the marginal is undefined — the Glauber assumption of §3 fails at this
// configuration), in which case out is left unspecified.
// The body is a flat CSR kernel: it walks the graph's compressed adjacency
// arrays directly rather than fetching the per-vertex Adj/Inc slice headers,
// because the chains sweep all n vertices every round through this function.
// The per-slot multiplication order, the zero-skip, and the normalization
// are exactly those of the pre-fusion implementation (pinned bit-identical
// by TestMarginalIntoMatchesReference), which is what keeps sharded and
// parallel trajectories byte-equal to the centralized chain.
func (m *MRF) MarginalInto(v int, x []int, out []float64) bool {
	b := m.VertexB[v]
	q := m.Q
	for c := 0; c < q; c++ {
		out[c] = b[c]
	}
	for t, end := m.rowPtr[v], m.rowPtr[v+1]; t < end; t++ {
		a := m.EdgeA[m.inc[t]].A
		xu := x[m.nbr[t]]
		for c := 0; c < q; c++ {
			if out[c] != 0 {
				out[c] *= a[c*q+xu]
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

// ResampleU is the fused heat-bath kernel the round kernels call: it
// computes vertex v's conditional marginal into scratch (exactly as
// MarginalInto) and draws from it with the externally supplied uniform u
// (exactly as rng.CategoricalU over the normalized marginal). ok is false
// when the marginal is undefined, in which case c is unspecified and the
// caller keeps the current value.
func (m *MRF) ResampleU(v int, x []int, scratch []float64, u float64) (c int, ok bool) {
	if !m.MarginalInto(v, x, scratch) {
		return 0, false
	}
	return rng.CategoricalU(scratch, u), true
}

// MarginalLaneInto is MarginalInto over one lane of a structure-of-arrays
// multi-chain state: x holds interleaved chains as byte lanes laid out
// [vertex][chain] at row stride `stride` (chain c's value at vertex v is
// x[v*stride+c]; a row may be padded past the live lanes), and the
// marginal is computed for lane `lane`. The CSR walk, the per-slot
// multiplication order, the zero-skip, and the normalization are those of
// MarginalInto verbatim — only the state load is strided — so each lane's
// marginal is bit-identical to the per-chain kernel's (pinned by
// TestMarginalLaneMatchesSequential).
func (m *MRF) MarginalLaneInto(v int, x []uint8, stride, lane int, out []float64) bool {
	b := m.VertexB[v]
	q := m.Q
	for c := 0; c < q; c++ {
		out[c] = b[c]
	}
	for t, end := m.rowPtr[v], m.rowPtr[v+1]; t < end; t++ {
		a := m.EdgeA[m.inc[t]].A
		xu := int(x[int(m.nbr[t])*stride+lane])
		for c := 0; c < q; c++ {
			if out[c] != 0 {
				out[c] *= a[c*q+xu]
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

// ResampleLaneU is ResampleU over one lane of an SoA multi-chain state
// (see MarginalLaneInto for the layout): marginal into scratch, then a
// CategoricalU draw with the supplied uniform — the fused heat-bath
// kernel the SoA batch rounds call per winning lane.
func (m *MRF) ResampleLaneU(v int, x []uint8, stride, lane int, scratch []float64, u float64) (c int, ok bool) {
	if !m.MarginalLaneInto(v, x, stride, lane, scratch) {
		return 0, false
	}
	return rng.CategoricalU(scratch, u), true
}

// EdgeCheckProb returns the LocalMetropolis pass probability of edge id
// given current spins (xu, xv) and proposals (su, sv):
//
//	Ã_e(σ_u,σ_v) · Ã_e(X_u,σ_v) · Ã_e(σ_u,X_v)      (Algorithm 2, line 6)
func (m *MRF) EdgeCheckProb(id, xu, xv, su, sv int) float64 {
	a := m.edgeNorm[id]
	return a.At(su, sv) * a.At(xu, sv) * a.At(su, xv)
}

// ProposalDistInto fills out with the LocalMetropolis proposal distribution
// of vertex v: b_v normalized (Algorithm 2, line 4).
func (m *MRF) ProposalDistInto(v int, out []float64) {
	copy(out, m.ProposalRow(v))
}

// ProposalRow returns vertex v's precomputed proposal distribution (b_v
// normalized). The caller must not modify it.
func (m *MRF) ProposalRow(v int) []float64 {
	return m.prop[v*m.Q : (v+1)*m.Q]
}

// ProposalCumRow returns the left-to-right running sums of ProposalRow(v) —
// the table rng.CategoricalCumU binary-searches. The caller must not modify
// it.
func (m *MRF) ProposalCumRow(v int) []float64 {
	return m.propCum[v*m.Q : (v+1)*m.Q]
}

// ProposeU draws vertex v's LocalMetropolis proposal from the supplied
// uniform u, bit-identical to rng.CategoricalU(m.ProposalRow(v), u) but in
// O(log q) via the precomputed cumulative table. The centralized and sharded
// round kernels both route proposals through here, so they cannot drift.
func (m *MRF) ProposeU(v int, u float64) int {
	q := m.Q
	return rng.CategoricalCumU(m.prop[v*q:(v+1)*q], m.propCum[v*q:(v+1)*q], u)
}

// MarginalsAlwaysDefined exhaustively checks the §3 Glauber assumption: the
// conditional marginal (2) is well defined at every configuration in [q]^V,
// feasible or not. Exponential in n; intended for the tiny instances used in
// exact verification. It panics if q^n overflows the iteration budget.
func (m *MRF) MarginalsAlwaysDefined(maxStates int) (bool, error) {
	n := m.G.N()
	states := 1
	for i := 0; i < n; i++ {
		states *= m.Q
		if states > maxStates {
			return false, fmt.Errorf("mrf: q^n exceeds budget %d", maxStates)
		}
	}
	sigma := make([]int, n)
	out := make([]float64, m.Q)
	for s := 0; s < states; s++ {
		decode(s, m.Q, sigma)
		for v := 0; v < n; v++ {
			if !m.MarginalInto(v, sigma, out) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Condition6Holds exhaustively checks inequality (6) of §4.1, the
// assumption under which LocalMetropolis converges from arbitrary (possibly
// infeasible) starting configurations:
//
//	Σ_i b_v(i) Π_{u∈Γ(v)} [ A_uv(i, X_u) Σ_j b_u(j) A_uv(X_v, j) A_uv(i, j) ] > 0
//
// for every X ∈ [q]^V and every v. Exponential in n; for tiny instances.
func (m *MRF) Condition6Holds(maxStates int) (bool, error) {
	n := m.G.N()
	states := 1
	for i := 0; i < n; i++ {
		states *= m.Q
		if states > maxStates {
			return false, fmt.Errorf("mrf: q^n exceeds budget %d", maxStates)
		}
	}
	sigma := make([]int, n)
	for s := 0; s < states; s++ {
		decode(s, m.Q, sigma)
		for v := 0; v < n; v++ {
			if !m.condition6At(v, sigma) {
				return false, nil
			}
		}
	}
	return true, nil
}

// condition6At evaluates the inner positivity of (6) at vertex v under X.
func (m *MRF) condition6At(v int, x []int) bool {
	adj, inc := m.G.Adj(v), m.G.Inc(v)
	for i := 0; i < m.Q; i++ {
		term := m.VertexB[v][i]
		if term == 0 {
			continue
		}
		ok := true
		for t, u := range adj {
			a := m.EdgeA[inc[t]]
			inner := 0.0
			for j := 0; j < m.Q; j++ {
				inner += m.VertexB[u][j] * a.At(x[v], j) * a.At(i, j)
			}
			if a.At(i, x[u]) == 0 || inner == 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// decode writes the base-q digits of s into sigma (least significant digit
// first, i.e. vertex 0 varies fastest).
func decode(s, q int, sigma []int) {
	for i := range sigma {
		sigma[i] = s % q
		s /= q
	}
}

// IsColoringModel reports whether the MRF is exactly the uniform proper
// q-coloring model: all vertex activities 1, all edge activities the
// complement-of-identity 0/1 matrix. Several components specialize on this
// (fast chain paths, permutation couplings, Theorem 4.2 round budgets).
// The answer is memoized at construction; callers may consult it on every
// draw for free.
func (m *MRF) IsColoringModel() bool { return m.coloring }

func (m *MRF) isColoringModel() bool {
	for _, b := range m.VertexB {
		for _, x := range b {
			if x != 1 {
				return false
			}
		}
	}
	checked := make(map[*Mat]bool)
	for _, a := range m.EdgeA {
		if checked[a] {
			continue
		}
		for i := 0; i < a.Q; i++ {
			for j := 0; j < a.Q; j++ {
				want := 1.0
				if i == j {
					want = 0
				}
				if a.At(i, j) != want {
					return false
				}
			}
		}
		checked[a] = true
	}
	return true
}
