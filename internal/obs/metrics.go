// Package obs is the observability substrate of the runtime: metrics
// (atomic counters, gauges, and fixed-bucket log-scale histograms with
// Prometheus text exposition), per-draw traces (Chrome trace-event
// export), and the round-level hooks the sampling engines call through a
// nil-checked interface.
//
// Design constraints, in priority order:
//
//   - Zero allocations on the hot path. Counter.Add, Gauge.Set,
//     Histogram.Observe, and RoundRecorder.RoundDone touch only atomics
//     and preallocated buffers, so instrumented rounds stay 0
//     allocs/round — the property the alloc gates in cluster and chains
//     pin. All allocation happens at registration/draw-setup time.
//   - Stdlib only. Exposition is the Prometheus text format (v0.0.4)
//     written by hand; traces are Chrome trace-event JSON; no client
//     library is vendored.
//   - Everything is concurrency-safe: metrics may be observed from any
//     goroutine while /metrics renders them.
//
// Histograms use base-2 log-scale buckets: value v lands in bucket
// bits.Len64(v), i.e. bucket i holds v ∈ [2^(i-1), 2^i). 65 fixed
// buckets cover the whole int64 range with ≤ 2× relative quantile error
// — plenty for latency series spanning nanoseconds to minutes, and the
// fixed layout is what makes Observe allocation-free.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bits.Len64 ranges over [0, 64].
const histBuckets = 65

// Histogram is a fixed-bucket base-2 log-scale histogram. Observe is
// lock-free and allocation-free; Quantile and the exposition walk the
// bucket array without stopping writers.
type Histogram struct {
	// scale converts raw observed units to exposition units (e.g. 1e-9
	// turns observed nanoseconds into exposed seconds). Quantile and
	// Mean report raw units; only the exposition scales.
	scale float64

	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations in raw units.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation in raw units (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) in raw units by linear
// interpolation inside the log-scale bucket holding the target rank. The
// relative error is bounded by the bucket width (≤ 2×). Returns 0 when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Snapshot the buckets; concurrent Observes may tear count vs
	// buckets, so derive the total from the snapshot itself.
	var snap [histBuckets]int64
	total := int64(0)
	for i := range snap {
		snap[i] = h.buckets[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range snap {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == histBuckets-1 {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return 0
}

// bucketBounds returns bucket i's value range [lo, hi) in raw units.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1 // the zero bucket
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// metricKind tags a registered family for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family.
type series struct {
	labels string // rendered `{k="v",...}` (empty for unlabeled)
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byLbl  map[string]*series
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Get-or-create accessors (Counter, Gauge, Histogram)
// are safe for concurrent use and idempotent: the same (name, labels)
// always returns the same metric, so callers never need to coordinate
// registration. A nil *Registry is a valid sink — every accessor returns
// a typed nil metric whose methods are no-ops — which is what lets
// instrumentation default to "off" without branching at every call site.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter with the given name and label pairs
// (key1, value1, key2, value2, ...), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindCounter, 0, labels).c
}

// Gauge returns the gauge with the given name and label pairs, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindGauge, 0, labels).g
}

// Histogram returns the histogram with the given name and label pairs,
// creating it on first use. scale converts raw observed units to
// exposition units (pass 1e-9 to observe nanoseconds and expose seconds,
// 1 for dimensionless values); it is fixed at first creation.
func (r *Registry) Histogram(name, help string, scale float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindHistogram, scale, labels).h
}

// getSeries get-or-creates the series for (name, labels), creating its
// metric under the registry lock so concurrent first uses all get the same
// one (scale is the histogram scale, ignored for other kinds). A name
// reused with a different kind panics: that is a programming error the
// first /metrics render would otherwise turn into an unparseable
// exposition.
func (r *Registry) getSeries(name, help string, kind metricKind, scale float64, labels []string) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLbl: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.kind, kind))
	}
	s, ok := f.byLbl[lbl]
	if !ok {
		s = &series{labels: lbl}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		default:
			if scale <= 0 {
				scale = 1
			}
			s.h = &Histogram{scale: scale}
		}
		f.byLbl[lbl] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	return s
}

// validMetricName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels turns (k1, v1, k2, v2, ...) pairs into a canonical
// `{k1="v1",k2="v2"}` string (keys sorted, values escaped).
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validLabelName enforces [a-zA-Z_][a-zA-Z0-9_]* (no colons in label
// names, per the exposition grammar).
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// mergeLabels appends extra pairs to a rendered label set — used by the
// histogram exposition to add `le` to the series labels.
func mergeLabels(rendered, key, val string) string {
	if rendered == "" {
		return "{" + key + `="` + val + `"}`
	}
	return rendered[:len(rendered)-1] + "," + key + `="` + val + `"}`
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families in registration order,
// each with its # HELP / # TYPE header, series sorted by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// Snapshot the family list; metric values are read outside the lock
	// (they are atomics), but the structure must not move underneath us.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	sers := make(map[*family][]*series, len(fams))
	for _, f := range fams {
		sers[f] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range sers[f] {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case kindHistogram:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets (empty
// leading/trailing buckets elided, +Inf always present), _sum, _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	var snap [histBuckets]int64
	maxUsed := -1
	for i := range snap {
		snap[i] = h.buckets[i].Load()
		if snap[i] != 0 {
			maxUsed = i
		}
	}
	cum := int64(0)
	for i := 0; i <= maxUsed; i++ {
		cum += snap[i]
		_, hi := bucketBounds(i)
		le := formatFloat((hi - 1) * h.scale)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", le), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(float64(h.sum.Load())*h.scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, cum)
}

// formatFloat renders a float without exponent noise for round values.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
