package locsample_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"locsample"
)

// TestSampleNSoABitIdentical pins the SoA batch engine's determinism
// contract at the API level: chain i of SampleN under WithBatchWidth(w)
// is bit-identical to Sample(WithSeed(ChainSeed(s, i))) at widths 8, 16,
// and 33 — 33 chains cut into tail blocks at 8 and 16, and one odd
// full-width block at 33 — for the coloring and Ising kernels (CI-gated
// via the bit-identity suite).
func TestSampleNSoABitIdentical(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	for _, tc := range []struct {
		name  string
		model *locsample.Model
		alg   locsample.Algorithm
	}{
		{"localmetropolis-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.LocalMetropolis},
		{"localmetropolis-ising", locsample.NewIsing(g, 0.9, 0.4), locsample.LocalMetropolis},
		{"lubyglauber-coloring", locsample.NewColoring(g, 2*g.MaxDeg()+1), locsample.LubyGlauber},
		{"glauber-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.Glauber},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, k = 42, 33
			base := []locsample.Option{
				locsample.WithAlgorithm(tc.alg),
				locsample.WithRounds(30),
			}
			want := make([][]int, k)
			for i := range want {
				single, err := locsample.Sample(tc.model,
					append(base, locsample.WithSeed(locsample.ChainSeed(seed, i)))...)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = single.Sample
			}
			for _, width := range []int{8, 16, 33} {
				s, err := locsample.NewSampler(tc.model,
					append(base, locsample.WithSeed(seed), locsample.WithBatchWidth(width))...)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := s.SampleN(k)
				if err != nil {
					t.Fatal(err)
				}
				if batch.SoAWidth != width {
					t.Fatalf("width=%d: batch ran at SoAWidth %d", width, batch.SoAWidth)
				}
				if !reflect.DeepEqual(batch.Samples, want) {
					t.Fatalf("width=%d: SoA batch diverges from derived-seed singles", width)
				}
			}
			// Auto width takes the SoA path for a 33-chain batch and stays
			// identical; width 1 forces the per-chain reference path.
			auto, err := locsample.NewSampler(tc.model, append(base, locsample.WithSeed(seed))...)
			if err != nil {
				t.Fatal(err)
			}
			ab, err := auto.SampleN(k)
			if err != nil {
				t.Fatal(err)
			}
			if ab.SoAWidth == 0 {
				t.Fatal("auto width did not take the SoA path for k=33")
			}
			if !reflect.DeepEqual(ab.Samples, want) {
				t.Fatal("auto-width SoA batch diverges from derived-seed singles")
			}
			aos, err := locsample.NewSampler(tc.model,
				append(base, locsample.WithSeed(seed), locsample.WithBatchWidth(1))...)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := aos.SampleN(k)
			if err != nil {
				t.Fatal(err)
			}
			if rb.SoAWidth != 0 {
				t.Fatalf("WithBatchWidth(1) still ran SoA at width %d", rb.SoAWidth)
			}
			if !reflect.DeepEqual(rb.Samples, want) {
				t.Fatal("per-chain reference batch diverges from derived-seed singles")
			}
		})
	}
}

// TestSampleCSPNSoABitIdentical is the CSP face of the same contract:
// dominating-set batch chains through the SoA engine at widths 8/16/33
// equal per-chain SampleCSP draws at the derived seeds.
func TestSampleCSPNSoABitIdentical(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	const rounds, seed, k = 15, 9, 33
	want := make([][]int, k)
	for i := range want {
		out, _, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(seed, i), false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for _, width := range []int{8, 16, 33} {
		s, err := locsample.NewCSPSampler(g, c, init,
			locsample.WithRounds(rounds), locsample.WithSeed(seed), locsample.WithBatchWidth(width))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.SampleNFrom(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if batch.SoAWidth != width {
			t.Fatalf("width=%d: batch ran at SoAWidth %d", width, batch.SoAWidth)
		}
		if !reflect.DeepEqual(batch.Samples, want) {
			t.Fatalf("width=%d: SoA CSP batch diverges from derived-seed singles", width)
		}
		// The convenience form threads the width through its rebuilt config.
		samples, err := locsample.SampleCSPN(g, c, init, rounds, seed, k, 0,
			locsample.WithBatchWidth(width))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(samples, want) {
			t.Fatalf("width=%d: SampleCSPN SoA batch diverges", width)
		}
	}
}

// TestSampleNFromSoAConcurrent exercises the SoA path under concurrent
// SampleNFrom calls — the serving pattern — so the race detector sees the
// block pool, the claim loop, and the scatter writes under contention.
func TestSampleNFromSoAConcurrent(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(model,
		locsample.WithRounds(20), locsample.WithBatchWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	const callers, k = 4, 17
	ref, err := s.SampleNFrom(7, k)
	if err != nil {
		t.Fatal(err)
	}
	if ref.SoAWidth != 8 {
		t.Fatalf("reference batch ran at SoAWidth %d, want 8", ref.SoAWidth)
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			batch, err := s.SampleNFrom(seed, k)
			if err != nil {
				errs <- err
				return
			}
			if seed == 7 && !reflect.DeepEqual(batch.Samples, ref.Samples) {
				t.Error("concurrent SoA batch diverges from sequential reference")
			}
		}(uint64(5 + c%2*2)) // seeds 5 and 7 interleaved
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSampleNWorkerPoolClamped pins the worker-pool sizing satellite: a
// batch that cuts into a single SoA block must not spin a
// GOMAXPROCS-sized pool. The run is observed via the process goroutine
// count while the draw is in flight.
func TestSampleNWorkerPoolClamped(t *testing.T) {
	g := locsample.GridGraph(48, 48)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(model,
		locsample.WithRounds(300),
		locsample.WithWorkers(8),
		locsample.WithBatchWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools so the measured run spawns only claim-loop workers.
	if _, err := s.SampleN(8); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := s.SampleN(8) // one block of 8 lanes -> one worker
		done <- err
	}()
	peak := base
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// base + launcher + 1 clamped worker, with slack for runtime
			// housekeeping; an unclamped pool would add 8.
			if peak > base+5 {
				t.Fatalf("goroutines peaked at %d over a base of %d; pool not clamped to the block count", peak, base)
			}
			return
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestSoAByteLaneGateBitIdentical pins the runtime's byte-lane rule on
// both families. A q = 256 model, the widest a byte lane holds, runs on
// SoA blocks at widths 8, 13 and 33 (partial words included); a q = 257
// model runs per-chain (SoAWidth 0) even under WithBatchWidth(16). Every
// batch equals the per-chain draw (WithBatchWidth(1)) byte for byte.
func TestSoAByteLaneGateBitIdentical(t *testing.T) {
	const seed, k, rounds = 5, 40, 12
	g := locsample.CycleGraph(9)
	init := make([]int, g.N())
	for i := range init {
		init[i] = i % 3
	}
	properCSP := func(q int) *locsample.CSPModel {
		acts := make([][]float64, g.N())
		for v := range acts {
			acts[v] = make([]float64, q)
			for a := range acts[v] {
				acts[v][a] = 1
			}
		}
		var cons []locsample.CSPConstraint
		for v := 0; v < g.N(); v++ {
			cons = append(cons, locsample.CSPConstraint{
				Scope: []int32{int32(v), int32((v + 1) % g.N())},
				F: func(x []int) float64 {
					if x[0] == x[1] {
						return 0
					}
					return 1
				},
			})
		}
		c, err := locsample.NewCSP(g.N(), q, acts, cons)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	type draw func(width int) (*locsample.Batch, error)
	families := map[string]func(q int) draw{
		"mrf": func(q int) draw {
			m := locsample.NewColoring(g, q)
			return func(width int) (*locsample.Batch, error) {
				s, err := locsample.NewSampler(m, locsample.WithRounds(rounds), locsample.WithBatchWidth(width))
				if err != nil {
					return nil, err
				}
				return s.SampleNFrom(seed, k)
			}
		},
		"csp": func(q int) draw {
			c := properCSP(q)
			return func(width int) (*locsample.Batch, error) {
				s, err := locsample.NewCSPSampler(g, c, init, locsample.WithRounds(rounds), locsample.WithBatchWidth(width))
				if err != nil {
					return nil, err
				}
				return s.SampleNFrom(seed, k)
			}
		},
	}
	for name, family := range families {
		for _, tc := range []struct {
			q      int
			widths []int
			soa    bool
		}{
			{256, []int{8, 13, 33}, true},
			{257, []int{0, 16}, false},
		} {
			run := family(tc.q)
			want, err := run(1)
			if err != nil {
				t.Fatal(err)
			}
			if want.SoAWidth != 0 {
				t.Fatalf("%s q=%d: WithBatchWidth(1) ran at SoAWidth %d", name, tc.q, want.SoAWidth)
			}
			for _, width := range tc.widths {
				got, err := run(width)
				if err != nil {
					t.Fatal(err)
				}
				wantWidth := 0
				if tc.soa {
					wantWidth = width
				}
				if got.SoAWidth != wantWidth {
					t.Fatalf("%s q=%d width=%d: ran at SoAWidth %d, want %d", name, tc.q, width, got.SoAWidth, wantWidth)
				}
				if !reflect.DeepEqual(got.Samples, want.Samples) {
					t.Fatalf("%s q=%d width=%d: batch diverges from the per-chain draw", name, tc.q, width)
				}
			}
		}
	}
}
