package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"locsample"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	if v, err := tail(xs(1000), 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, err)
	}
	if _, err := tail(xs(999), 99); err == nil {
		t.Fatal("p99 of 999 samples has nine beyond it and must be rejected")
	}
	if _, err := tail(xs(199), 95); err == nil {
		t.Fatal("p95 of 199 samples has nine beyond it and must be rejected")
	}
	if got := minSamples(99); got != 1000 {
		t.Fatalf("minSamples(99) = %d, want 1000", got)
	}
	if got := minSamples(95); got != 200 {
		t.Fatalf("minSamples(95) = %d, want 200", got)
	}
}

func TestScheduleReplaysFromSeed(t *testing.T) {
	const rate, classes = 75.0, 3
	span := 40 * time.Second
	a := schedule(7, rate, classes, span)
	if b := schedule(7, rate, classes, span); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := schedule(8, rate, classes, span); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	perClass := make([]int, classes)
	seeds := map[uint64]bool{}
	for i, x := range a {
		if x.due < 0 || x.due >= span || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: out of order or outside [0, %v)", i, x.due, span)
		}
		perClass[x.class]++
		seeds[x.seed] = true
	}
	total := len(a)
	// Poisson count at mean 3000 has sd ~55.
	if want := rate * span.Seconds(); float64(total) < 0.9*want || float64(total) > 1.1*want {
		t.Fatalf("%d arrivals in %v at %g/s", total, span, rate)
	}
	for c, n := range perClass {
		if n < total/classes || n > total/classes+1 {
			t.Fatalf("class %d has %d of %d arrivals; shares must be equal", c, n, total)
		}
	}
	if len(seeds) != total {
		t.Fatalf("%d distinct draw seeds for %d arrivals", len(seeds), total)
	}
}

// Two expositions captured from lserved, trimmed: the same series
// before and after a window in which one model served draws.
const scrapeBefore = `# HELP locserved_cache_hits_total compiled-sampler cache hits
# TYPE locserved_cache_hits_total counter
locserved_cache_hits_total 3
# HELP locserved_draw_seconds end-to-end draw latency
# TYPE locserved_draw_seconds histogram
locserved_draw_seconds_bucket{model="sha256:aa",le="0.002"} 1
locserved_draw_seconds_bucket{model="sha256:aa",le="+Inf"} 1
locserved_draw_seconds_sum{model="sha256:aa"} 0.0015
locserved_draw_seconds_count{model="sha256:aa"} 1
# HELP locsample_round_flips_total accepted per-round vertex updates
# TYPE locsample_round_flips_total counter
locsample_round_flips_total{engine="mrf"} 100
locsample_round_flips_total{engine="csp"} 40
# HELP locsampled_build_info build and runtime metadata
# TYPE locsampled_build_info gauge
locsampled_build_info{goversion="go1.24.0",version="(dev \"x\")"} 1
`

const scrapeAfter = `# HELP locserved_cache_hits_total compiled-sampler cache hits
# TYPE locserved_cache_hits_total counter
locserved_cache_hits_total 10
# HELP locserved_draw_seconds end-to-end draw latency
# TYPE locserved_draw_seconds histogram
locserved_draw_seconds_bucket{model="sha256:aa",le="0.002"} 5
locserved_draw_seconds_bucket{model="sha256:aa",le="+Inf"} 8
locserved_draw_seconds_sum{model="sha256:aa"} 0.0215
locserved_draw_seconds_count{model="sha256:aa"} 8
locserved_draw_seconds_bucket{model="sha256:bb",le="+Inf"} 2
locserved_draw_seconds_sum{model="sha256:bb"} 0.006
locserved_draw_seconds_count{model="sha256:bb"} 2
# HELP locsample_round_flips_total accepted per-round vertex updates
# TYPE locsample_round_flips_total counter
locsample_round_flips_total{engine="mrf"} 160
locsample_round_flips_total{engine="csp"} 45 1700000000000
# HELP locsampled_build_info build and runtime metadata
# TYPE locsampled_build_info gauge
locsampled_build_info{goversion="go1.24.0",version="(dev \"x\")"} 1
`

func TestScrapeDeltas(t *testing.T) {
	before, err := parseExposition(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"locserved_cache_hits_total", nil, 7},
		{"locserved_draw_seconds_count", nil, 9},   // 7 on aa + 2 on bb, new in the window
		{"locserved_draw_seconds_sum", nil, 0.026}, // 0.02 + 0.006
		{"locserved_draw_seconds_sum", []string{"model", "sha256:bb"}, 0.006},
		{"locsample_round_flips_total", []string{"engine", "mrf"}, 60},
		{"locsample_round_flips_total", []string{"engine", "csp"}, 5}, // trailing timestamp ignored
		{"locsample_round_flips_total", nil, 65},
		{"locsampled_build_info", []string{"version", `(dev "x")`}, 0},
		{"locserved_compiles_total", nil, 0}, // absent from both
	} {
		if got := d.sum(c.name, c.match...); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if got := after.sum("locsampled_build_info", "version", `(dev "x")`); got != 1 {
		t.Errorf("escaped label value not matched: %v", got)
	}
	for _, bad := range []string{"no_value", `m{k="v" 1`, `m{k="v"} one`, `m{k=v} 1`} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed malformed line %q", bad)
		}
	}
}

// The in-process registry goes through the same parser as /metrics.
func TestScrapeInProcessRegistry(t *testing.T) {
	reg := locsample.NewMetrics()
	g := locsample.GridGraph(8, 8)
	s, err := locsample.NewSampler(locsample.NewColoring(g, 16), locsample.WithMetrics(reg), locsample.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	before, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SampleNFrom(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	after, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.sum("locsample_draws_total", "engine", "mrf"); got != 3 {
		t.Fatalf("locsample_draws_total delta = %v, want 3", got)
	}
	// Sharded rounds report once per shard per round.
	if got, want := d.sum("locsample_rounds_total", "engine", "mrf"), float64(3*2*b.Rounds); got != want {
		t.Fatalf("locsample_rounds_total delta = %v, want %v", got, want)
	}
	if d.sum("locsample_round_compute_seconds_sum") <= 0 || d.sum("locsample_round_flips_total") <= 0 {
		t.Fatal("round compute time and flips must both grow over a sharded draw")
	}
}

func TestGridMatchesProgram(t *testing.T) {
	g := grid{5, 7}
	want := map[[2]int]bool{}
	for _, e := range locsample.GridGraph(5, 7).Edges() {
		u, v := int(e.U), int(e.V)
		want[[2]int{min(u, v), max(u, v)}] = true
	}
	got := map[[2]int]bool{}
	for v := 0; v < g.n(); v++ {
		for _, u := range g.neighbors(v, nil) {
			got[[2]int{min(u, v), max(u, v)}] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checker grid has %d edges, program grid %d, or they differ", len(got), len(want))
	}
}

func TestCheckersRejectPlantedSamples(t *testing.T) {
	g := grid{8, 8}
	graph := locsample.GridGraph(8, 8)

	col, err := locsample.Sample(locsample.NewColoring(graph, 16), locsample.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	x := append([]int(nil), col.Sample...)
	if err := checkColoring(g, 16, x); err != nil {
		t.Fatalf("a drawn coloring was rejected: %v", err)
	}
	x[9] = x[10] // vertices 9 and 10 are horizontal neighbors
	if err := checkColoring(g, 16, x); err == nil {
		t.Fatal("improper coloring accepted")
	}
	x = append([]int(nil), col.Sample...)
	x[0] = 16
	if err := checkColoring(g, 16, x); err == nil {
		t.Fatal("color outside the palette accepted")
	}

	hc, err := locsample.Sample(locsample.NewHardcore(graph, 1), locsample.WithAlgorithm(locsample.LubyGlauber), locsample.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIndependent(g, hc.Sample); err != nil {
		t.Fatalf("a drawn hardcore configuration was rejected: %v", err)
	}
	x = make([]int, g.n())
	x[0], x[8] = 1, 1 // vertical neighbors
	if err := checkIndependent(g, x); err == nil {
		t.Fatal("non-independent set accepted")
	}

	ones := make([]int, g.n())
	for i := range ones {
		ones[i] = 1
	}
	ds, _, err := locsample.SampleCSP(graph, locsample.NewDominatingSet(graph), ones, 64, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDominating(g, ds); err != nil {
		t.Fatalf("a drawn dominating set was rejected: %v", err)
	}
	x = append([]int(nil), ones...)
	x[27] = 0 // vertex 27 (row 3, col 3) and all four neighbors out
	for _, u := range g.neighbors(27, nil) {
		x[u] = 0
	}
	if err := checkDominating(g, x); err == nil {
		t.Fatal("non-dominating configuration accepted")
	}

	y := append([]int(nil), col.Sample...)
	y[len(y)-1] = (y[len(y)-1] + 1) % 16
	if err := checkSame(y, col.Sample); err == nil {
		t.Fatal("a one-spin mismatch against the reference was accepted")
	}
	if err := checkSame(col.Sample, col.Sample); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json at the repository root must name exactly the metrics
// and workloads this benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", what, i, got[i], m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, traceMetrics())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the code", w.Name)
		}
	}
}
