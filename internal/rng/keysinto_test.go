package rng

import "testing"

// TestKeysIntoMatchesKey pins the hoisted block key schedule to per-chain
// Key derivation: entry i must be exactly Key(seeds[i], tag, round), so SoA
// lane variates are bit-identical to per-chain draws.
func TestKeysIntoMatchesKey(t *testing.T) {
	seeds := []uint64{0, 1, 42, ^uint64(0), 0x9e3779b97f4a7c15}
	dst := make([]RoundKey, len(seeds))
	for _, tag := range []uint64{0x1001, 0x3002} {
		for _, round := range []uint64{0, 7, 1 << 40} {
			KeysInto(dst, seeds, tag, round)
			for i, s := range seeds {
				want := Key(s, tag, round)
				if dst[i] != want {
					t.Fatalf("tag=%#x round=%d seed=%d: KeysInto diverges from Key", tag, round, s)
				}
				for v := uint64(0); v < 5; v++ {
					if dst[i].Uint64(v) != PRF(s, tag, v, round) {
						t.Fatalf("tag=%#x round=%d seed=%d v=%d: keyed variate diverges from PRF", tag, round, s, v)
					}
				}
			}
		}
	}
}

// TestLaneFloat64sBitIdentical pins the shared-id lane helper to
// RoundKey.Float64: lane i of a row must be exactly keys[i].Float64(id),
// for random seeds, tags and rounds and at the extreme ids.
func TestLaneFloat64sBitIdentical(t *testing.T) {
	src := New(20)
	const lanes = 37
	keys := make([]RoundKey, lanes)
	seeds := make([]uint64, lanes)
	dst := make([]float64, lanes)
	for trial := 0; trial < 200; trial++ {
		for i := range seeds {
			seeds[i] = src.Uint64()
		}
		tag, round := src.Uint64(), src.Uint64()
		KeysInto(keys, seeds, tag, round)
		for _, id := range []uint64{0, 1, ^uint64(0), src.Uint64()} {
			w := 1 + src.Intn(lanes)
			LaneFloat64s(dst[:w], keys, id)
			for i := 0; i < w; i++ {
				if want := keys[i].Float64(id); dst[i] != want {
					t.Fatalf("trial %d id=%d lane %d: %v, want %v", trial, id, i, dst[i], want)
				}
			}
		}
	}
}
