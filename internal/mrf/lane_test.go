package mrf

import (
	"testing"

	"locsample/internal/graph"
	"locsample/internal/rng"
)

// laneTestModels are small models with distinct marginal shapes: hard
// constraints (coloring), soft interactions (Ising), and zero-marginal
// states (hardcore).
func laneTestModels() map[string]*MRF {
	return map[string]*MRF{
		"coloring": Coloring(graph.Grid(4, 4), 5),
		"ising":    Ising(graph.Grid(4, 4), 1.2, 0.7),
		"hardcore": Hardcore(graph.Cycle(9), 1.5),
	}
}

// laneConfigs builds w distinct feasible-ish configurations and their SoA
// interleaving x[v*w+lane].
func laneConfigs(m *MRF, w int, seed uint64) (flat [][]int, strided []uint8) {
	n := m.G.N()
	flat = make([][]int, w)
	strided = make([]uint8, n*w)
	for lane := 0; lane < w; lane++ {
		src := rng.New(seed + uint64(lane))
		x := make([]int, n)
		for v := range x {
			x[v] = src.Intn(m.Q)
		}
		flat[lane] = x
		for v := 0; v < n; v++ {
			strided[v*w+lane] = uint8(x[v])
		}
	}
	return flat, strided
}

// TestMarginalLaneMatchesSequential pins the SoA lane marginal to the
// flat-configuration kernel bit-for-bit: same weights, same normalization,
// same zero-mass verdicts, at every lane of every width.
func TestMarginalLaneMatchesSequential(t *testing.T) {
	for name, m := range laneTestModels() {
		t.Run(name, func(t *testing.T) {
			for _, w := range []int{1, 3, 8} {
				flat, strided := laneConfigs(m, w, 77)
				want := make([]float64, m.Q)
				got := make([]float64, m.Q)
				for v := 0; v < m.G.N(); v++ {
					for lane := 0; lane < w; lane++ {
						okW := m.MarginalInto(v, flat[lane], want)
						okG := m.MarginalLaneInto(v, strided, w, lane, got)
						if okW != okG {
							t.Fatalf("w=%d lane=%d v=%d: mass verdict %v vs %v", w, lane, v, okW, okG)
						}
						if !okW {
							continue
						}
						for c := 0; c < m.Q; c++ {
							if want[c] != got[c] {
								t.Fatalf("w=%d lane=%d v=%d spin=%d: marginal %v != %v", w, lane, v, c, got[c], want[c])
							}
						}
					}
				}
			}
		})
	}
}

// TestResampleLaneUMatchesSequential: the lane draw equals ResampleU under
// the same uniform.
func TestResampleLaneUMatchesSequential(t *testing.T) {
	m := Coloring(graph.Grid(4, 4), 5)
	const w = 4
	flat, strided := laneConfigs(m, w, 5)
	scratch := make([]float64, m.Q)
	scratch2 := make([]float64, m.Q)
	src := rng.New(9)
	for v := 0; v < m.G.N(); v++ {
		for lane := 0; lane < w; lane++ {
			u := src.Float64()
			cw, okW := m.ResampleU(v, flat[lane], scratch, u)
			cg, okG := m.ResampleLaneU(v, strided, w, lane, scratch2, u)
			if okW != okG || cw != cg {
				t.Fatalf("v=%d lane=%d: (%d,%v) != (%d,%v)", v, lane, cg, okG, cw, okW)
			}
		}
	}
}
