package locsample

import (
	"testing"

	"locsample/internal/chains"
)

// TestBatchWidthResolution pins the width picker: explicit 1 forces the
// per-chain path, explicit w ≥ 2 is honored only when the batch fills a
// block, and auto takes the widest block that still cuts the batch into
// at least `workers` blocks (falling back to the narrowest block rather
// than per-chain once a block fills).
func TestBatchWidthResolution(t *testing.T) {
	cases := []struct {
		explicit, k, workers, want int
	}{
		{1, 100, 4, 0},    // explicit AoS
		{16, 16, 4, 16},   // pinned, exactly one block
		{16, 15, 4, 0},    // pinned but the batch cannot fill a block
		{33, 33, 1, 33},   // pinned odd width
		{0, 64, 1, 64},    // auto: one worker takes the widest block
		{0, 64, 4, 16},    // auto: 4 blocks of 16 keep 4 workers busy
		{0, 100, 4, 32},   // auto: ceil(100/32) = 4 blocks
		{0, 8, 4, 8},      // auto fallback: one narrow block beats per-chain
		{0, 7, 1, 0},      // too small for any block
		{0, 1000, 16, 64}, // large batch: widest block wins
		{0, 12, 2, 8},     // 12 chains: one 8-block + tail of 4
	}
	for _, tc := range cases {
		if got := batchWidth(tc.explicit, tc.k, tc.workers); got != tc.want {
			t.Errorf("batchWidth(%d, %d, %d) = %d, want %d", tc.explicit, tc.k, tc.workers, got, tc.want)
		}
	}
}

// TestBatchWorkersClamp: the pool never exceeds the claimable work items.
func TestBatchWorkersClamp(t *testing.T) {
	for _, tc := range []struct{ workers, items, want int }{
		{8, 3, 3},
		{2, 10, 2},
		{4, 4, 4},
	} {
		if got := batchWorkers(tc.workers, tc.items); got != tc.want {
			t.Errorf("batchWorkers(%d, %d) = %d, want %d", tc.workers, tc.items, got, tc.want)
		}
	}
}

// TestSoABatchable: only the marginal/propose/filter round shapes batch,
// and only models whose spins fit a byte lane.
func TestSoABatchable(t *testing.T) {
	for alg, want := range map[chains.Algorithm]bool{
		chains.Glauber:          true,
		chains.LubyGlauber:      true,
		chains.LocalMetropolis:  true,
		chains.SystematicScan:   false,
		chains.ChromaticGlauber: false,
	} {
		if got := soaBatchable(alg, 16); got != want {
			t.Errorf("soaBatchable(%v, 16) = %v, want %v", alg, got, want)
		}
		if got := soaBatchable(alg, chains.MaxLaneQ); got != want {
			t.Errorf("soaBatchable(%v, %d) = %v, want %v", alg, chains.MaxLaneQ, got, want)
		}
		if soaBatchable(alg, chains.MaxLaneQ+1) {
			t.Errorf("soaBatchable(%v, %d) = true, want false", alg, chains.MaxLaneQ+1)
		}
	}
}
