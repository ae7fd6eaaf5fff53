package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"locsample"
)

// inprocWorkload is a closed loop of SampleNFrom calls from one
// in-process caller, alternating an MRF class (coloring q=16,
// LocalMetropolis at the theory budget) with a CSP class (dominating
// sets at a fixed round budget) on one grid.
type inprocWorkload struct {
	rows, cols int
	k          int // chains per call
	shards     int // 0 runs chains centralized
	// cspRounds is set so the CSP class costs about what the coloring
	// class costs: with equal-cost classes the median call sits inside
	// one mode instead of between two.
	cspRounds int
	setupReps int
	// tailPct is the latency_tail_ms percentile. With strictTail the
	// loop runs until ten samples lie beyond it; batch-soa's two dozen
	// calls support no such percentile above the median, so it reports
	// the upper quartile instead.
	tailPct    float64
	strictTail bool
	limit      time.Duration // latency limit of max_rate_rps
	// refEvery: one call in refEvery has one of its chains compared
	// against a per-chain centralized reference draw.
	refEvery int
	// exactPairs is the prefix, in call pairs, over which the counts
	// that must repeat exactly at a given seed (flips, boundary values)
	// are taken; the timed loop's length varies with speed, a prefix
	// does not.
	exactPairs int
}

// batchSoA: k=64 draws that the engine cuts into SoA lane blocks, so
// the lane kernels do almost all the work and neither the service nor
// the cluster layer runs.
var batchSoA = inprocWorkload{
	rows: 128, cols: 128, k: 64, cspRounds: 48, setupReps: 3,
	tailPct: 75, limit: 5 * time.Second, refEvery: 1, exactPairs: 4,
}

// chainSharded: single chains split over two lockstep shards, so
// cluster rounds, barrier waits and halo exchange carry the draw.
var chainSharded = inprocWorkload{
	rows: 256, cols: 256, k: 1, shards: 2, cspRounds: 64, setupReps: 5,
	tailPct: 95, strictTail: true, limit: 250 * time.Millisecond, refEvery: 16, exactPairs: 16,
}

// drawInfo is what one SampleNFrom call returned besides its samples.
type drawInfo struct {
	rounds         int
	soaWidth       int
	boundaryValues int64
}

type inprocClass struct {
	family string // engine label of the class's locsample_* series
	draw   func(seed uint64, k int) ([][]int, drawInfo, error)
	check  func(x []int) error
	// ref draws chain i of a master-seed-s batch on the per-chain
	// centralized path: a fresh unsharded sampler seeded ChainSeed(s, i).
	ref func(s uint64, i int) ([]int, error)
}

// build constructs the graph, both models and both samplers, and
// returns the classes in call order.
func (w inprocWorkload) build(reg *locsample.Metrics) ([]*inprocClass, error) {
	g := grid{w.rows, w.cols}
	graph := locsample.GridGraph(w.rows, w.cols)
	var opts []locsample.Option
	if reg != nil {
		opts = append(opts, locsample.WithMetrics(reg))
	}
	if w.shards > 1 {
		opts = append(opts, locsample.WithShards(w.shards))
	}
	coloring := locsample.NewColoring(graph, 16)
	mrf, err := locsample.NewSampler(coloring, opts...)
	if err != nil {
		return nil, err
	}
	domset := locsample.NewDominatingSet(graph)
	ones := make([]int, g.n())
	for i := range ones {
		ones[i] = 1
	}
	csp, err := locsample.NewCSPSampler(graph, domset, ones, append(opts, locsample.WithRounds(w.cspRounds))...)
	if err != nil {
		return nil, err
	}
	return []*inprocClass{{
		family: "mrf",
		draw: func(seed uint64, k int) ([][]int, drawInfo, error) {
			b, err := mrf.SampleNFrom(seed, k)
			if err != nil {
				return nil, drawInfo{}, err
			}
			return b.Samples, drawInfo{b.Rounds, b.SoAWidth, b.Shard.BoundaryValues}, nil
		},
		check: func(x []int) error { return checkColoring(g, 16, x) },
		ref: func(s uint64, i int) ([]int, error) {
			r, err := locsample.NewSampler(coloring, locsample.WithSeed(locsample.ChainSeed(s, i)))
			if err != nil {
				return nil, err
			}
			res, err := r.Sample()
			if err != nil {
				return nil, err
			}
			return res.Sample, nil
		},
	}, {
		family: "csp",
		draw: func(seed uint64, k int) ([][]int, drawInfo, error) {
			b, err := csp.SampleNFrom(seed, k)
			if err != nil {
				return nil, drawInfo{}, err
			}
			return b.Samples, drawInfo{b.Rounds, b.SoAWidth, b.Shard.BoundaryValues}, nil
		},
		check: func(x []int) error { return checkDominating(g, x) },
		ref: func(s uint64, i int) ([]int, error) {
			r, err := locsample.NewCSPSampler(graph, domset, ones,
				locsample.WithRounds(w.cspRounds), locsample.WithSeed(locsample.ChainSeed(s, i)))
			if err != nil {
				return nil, err
			}
			x, _, err := r.Sample()
			return x, err
		},
	}}, nil
}

func (w inprocWorkload) run(cfg config, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{E2E: map[string]float64{}, Layers: map[string]float64{}}
	seeds := newStream(cfg.seed, "draws")
	picks := newStream(cfg.seed, "refcheck")

	// Set-up: graph, models and samplers from scratch, then one warm
	// draw per class, several times; the last set-up serves the run.
	var (
		classes                   []*inprocClass
		reg                       *locsample.Metrics
		setups, compiles, warmups []float64
	)
	for rep := 0; rep < w.setupReps; rep++ {
		if tr != nil {
			reg = locsample.NewMetrics()
		}
		// Each set-up starts from a collected heap, as in a fresh
		// process, so earlier set-ups' garbage does not set peak RSS.
		classes = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if classes, err = w.build(reg); err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, c := range classes {
			if _, _, err := c.draw(seeds.next(), w.k); err != nil {
				return nil, fmt.Errorf("warm-up draw: %w", err)
			}
		}
		t2 := time.Now()
		tr.add("setup", 0, int64(rep), 0, t0, t2)
		setups = append(setups, t2.Sub(t0).Seconds())
		compiles = append(compiles, t1.Sub(t0).Seconds())
		warmups = append(warmups, t2.Sub(t1).Seconds())
	}

	var (
		lat, pairTimes []float64
		timed          time.Duration
		metLimit       int
		// chain-rounds per class family, the denominators of its
		// per-update metrics: over the loop, and over the exact prefix
		chainRounds, exactRounds = map[string]float64{}, map[string]float64{}
		soaChains, chains        float64
		allocBytes, gcs          uint64
		boundary                 float64
		parallel                 = 1
		before, exact            exposition
		ms0, ms1                 runtime.MemStats
		classLat                 = map[string][]float64{}
	)
	minOps := 1
	if w.strictTail {
		minOps = minSamples(w.tailPct)
	}
	if tr != nil {
		var err error
		if before, err = scrapeRegistry(reg); err != nil {
			return nil, err
		}
	}
	op := int64(0)
	for pair := 0; timed.Seconds() < cfg.seconds || len(lat) < minOps; pair++ {
		pairTime := 0.0
		for _, c := range classes {
			op++
			seed := seeds.next()
			if tr != nil {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Now()
			samples, info, err := c.draw(seed, w.k)
			t1 := time.Now()
			if tr != nil {
				runtime.ReadMemStats(&ms1)
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				gcs += uint64(ms1.NumGC - ms0.NumGC)
				tr.add("locsample.SampleNFrom", 0, op, 0, t0, t1)
			}
			res.Attempted++
			d := t1.Sub(t0)
			timed += d
			pairTime += d.Seconds()
			if err != nil {
				res.fail("op %d: %v", op, err)
				continue
			}
			lat = append(lat, float64(d.Nanoseconds())/1e6)
			classLat[c.family] = append(classLat[c.family], float64(d.Nanoseconds())/1e6)
			if d <= w.limit {
				metLimit++
			}
			n := float64(len(samples))
			chains += n
			if info.soaWidth > 0 {
				soaChains += n
				parallel = min(runtime.GOMAXPROCS(0), (w.k+info.soaWidth-1)/info.soaWidth)
			}
			if w.shards > 1 {
				parallel = w.shards
			}
			chainRounds[c.family] += n * float64(info.rounds)
			if pair < w.exactPairs {
				exactRounds[c.family] += n * float64(info.rounds)
				boundary += float64(info.boundaryValues)
			}
			if err := w.checkCall(c, seed, samples, picks); err != nil {
				res.fail("op %d (seed %d): %v", op, seed, err)
			}
		}
		pairTimes = append(pairTimes, pairTime)
		if tr != nil && pair+1 == w.exactPairs {
			var err error
			if exact, err = scrapeRegistry(reg); err != nil {
				return nil, err
			}
		}
	}

	for _, c := range classes {
		fmt.Fprintf(os.Stderr, "%s class: %d calls, median %.3f ms\n", c.family, len(classLat[c.family]), median(classLat[c.family]))
	}
	tailV := percentile(lat, w.tailPct)
	if w.strictTail {
		var err error
		if tailV, err = tail(lat, w.tailPct); err != nil {
			return nil, err
		}
	}
	res.E2E["setup_s"] = median(setups)
	res.E2E["latency_p50_ms"] = median(lat)
	res.E2E["latency_tail_ms"] = tailV
	res.E2E["max_rate_rps"] = ratio(float64(metLimit), timed.Seconds())
	res.E2E["chains_per_s"] = ratio(float64(w.k*len(classes)), median(pairTimes))

	if tr == nil {
		return res, nil
	}
	after, err := scrapeRegistry(reg)
	if err != nil {
		return nil, err
	}
	all := after.delta(before)
	prefix := exact.delta(before)
	n := float64(w.rows * w.cols)
	spanSum, _ := tr.total("locsample.SampleNFrom")
	compute := all.sum("locsample_round_compute_seconds_sum")
	barrier := all.sum("locsample_round_barrier_seconds_sum")
	L := res.Layers
	for _, m := range perLayer {
		L[m.name] = 0 // loadgen and service do not run in process
	}
	L["locsample.draw_ms"] = tr.meanMS("locsample.SampleNFrom")
	L["locsample.overhead_share"] = 1 - ratio(compute, float64(parallel)*spanSum.Seconds())
	L["locsample.soa_share"] = ratio(soaChains, chains)
	L["locsample.alloc_kb_per_chain"] = ratio(float64(allocBytes)/1024, chains)
	L["locsample.gc_per_1k_chains"] = ratio(1000*float64(gcs), chains)
	for name, family := range map[string]string{"chains": "mrf", "csp": "csp"} {
		L[name+".ns_per_update"] = ratio(1e9*all.sum("locsample_round_compute_seconds_sum", "engine", family), n*chainRounds[family])
		L[name+".flip_ratio"] = ratio(prefix.sum("locsample_round_flips_total", "engine", family), n*exactRounds[family])
	}
	L["cluster.barrier_share"] = ratio(barrier, compute+barrier)
	L["cluster.boundary_values_per_round"] = ratio(boundary, exactRounds["mrf"]+exactRounds["csp"])
	L["core.compile_s"] = median(compiles)
	L["core.warmup_s"] = median(warmups)
	return res, nil
}

// checkCall checks every chain of one call for feasibility and, on a
// seeded subset of calls, one seeded chain byte for byte against its
// per-chain reference draw.
func (w inprocWorkload) checkCall(c *inprocClass, seed uint64, samples [][]int, picks *stream) error {
	// Draw the pick first so the subset does not depend on which calls
	// failed.
	compare, i := picks.pick(w.refEvery), int(picks.next()%uint64(w.k))
	if len(samples) != w.k {
		return fmt.Errorf("got %d samples, want %d", len(samples), w.k)
	}
	for i, x := range samples {
		if err := c.check(x); err != nil {
			return fmt.Errorf("chain %d: %w", i, err)
		}
	}
	if !compare {
		return nil
	}
	want, err := c.ref(seed, i)
	if err != nil {
		return fmt.Errorf("reference draw: %w", err)
	}
	if err := checkSame(samples[i], want); err != nil {
		return fmt.Errorf("chain %d vs reference: %w", i, err)
	}
	return nil
}

// scrapeRegistry reads an in-process metrics registry through the same
// parser as lserved's /metrics.
func scrapeRegistry(reg *locsample.Metrics) (exposition, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(&b)
}
