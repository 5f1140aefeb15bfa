// Package obs is the self-observability layer of the LMS stack (DESIGN.md
// §10): process-local metrics exported in the Prometheus text exposition
// format, built on cheap atomics and nothing outside the standard library.
//
// A monitoring stack that serves heavy traffic must expose its own health
// through the same kind of interface it provides to others, so lms-db and
// lms-router each mount a Registry on GET /metrics. Instruments are the
// usual Prometheus trio:
//
//   - Counter: monotonically increasing uint64 (points ingested, drops),
//   - Gauge: a settable level (in-flight bytes),
//   - Histogram: cumulative buckets + sum + count (fsync and query latency),
//
// plus Func metrics that sample a callback at scrape time, which is how
// already-existing counters (Router.Stats, DB.QueryCacheStats, per-shard
// point counts) are exported without moving them: the component keeps its
// atomics, the registry reads them when asked.
//
// The package also owns the backpressure primitive, Gate: a bounded
// admission controller for the ingest hot paths. Handlers acquire
// (request, byte) budget before reading a body and release it when done;
// when the budget is exhausted the caller sheds load with 429 +
// Retry-After instead of letting goroutines and buffers pile up without
// bound — and every shed is counted, so overload is visible on /metrics
// rather than silent.
//
// And it owns the lifecycle of background work, Job (job.go): every loop of
// the stack is scheduled, kicked, backed off, stopped-and-waited-for, timed
// and exported (lms_job_*) there and nowhere else.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered instrument; write renders its exposition block.
type metric interface {
	metricName() string
	write(w io.Writer)
}

// Registry holds a set of named instruments and renders them in the
// Prometheus text exposition format (version 0.0.4). Registration happens
// at wiring time; rendering may run concurrently with updates (all
// instrument state is atomic).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
	jobs    []*JobStats // job.go: the samples of the lms_job_* families
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.metricName()] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.metricName()))
	}
	r.names[m.metricName()] = true
	r.metrics = append(r.metrics, m)
	sort.Slice(r.metrics, func(i, j int) bool {
		return r.metrics[i].metricName() < r.metrics[j].metricName()
	})
}

// Render writes every registered metric to w.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Render(w)
	})
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// L renders label pairs ("k1", "v1", "k2", "v2", ...) as a Prometheus
// label string `k1="v1",k2="v2"`, escaping '\', '"' and newlines in
// values. An empty list renders empty (no braces).
func L(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: L needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		for j := 0; j < len(v); j++ {
			switch v[j] {
			case '\\', '"':
				b.WriteByte('\\')
				b.WriteByte(v[j])
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(v[j])
			}
		}
		b.WriteByte('"')
	}
	return b.String()
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
}

// formatFloat renders integers without an exponent or trailing zeros, so
// counters read naturally, and everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing value. The zero Counter must not be
// used; create through Registry.NewCounter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter. By convention the name ends in _total.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	writeSample(w, c.name, "", float64(c.v.Load()))
}

// --- Gauge -----------------------------------------------------------------

// Gauge is a value that can go up and down, stored as int64.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	writeSample(w, g.name, "", float64(g.v.Load()))
}

// --- Histogram -------------------------------------------------------------

// DefLatencyBuckets are the default bucket upper bounds for latency
// histograms, in seconds: 100µs to 10s, roughly 1-2.5-5 per decade. WAL
// fsyncs land in the low milliseconds, cold aggregation queries in the
// tens; both fit without a resize knob.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: one atomic add on the bucket, one on the count, a CAS loop on
// the float sum.
type Histogram struct {
	name, help string
	upper      []float64 // sorted upper bounds, +Inf implicit
	counts     []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// NewHistogram registers a histogram over the given bucket upper bounds
// (sorted ascending; +Inf is implicit). nil selects DefLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	h := &Histogram{
		name:   name,
		help:   help,
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		writeSample(w, h.name+"_bucket", `le="`+formatFloat(ub)+`"`, float64(cum))
	}
	cum += h.counts[len(h.upper)].Load()
	writeSample(w, h.name+"_bucket", `le="+Inf"`, float64(cum))
	writeSample(w, h.name+"_sum", "", h.Sum())
	writeSample(w, h.name+"_count", "", float64(cum))
}

// --- Func metrics ----------------------------------------------------------

// FuncMetric samples a callback at scrape time, emitting zero or more
// labeled samples under one metric name. It is how state that already
// lives elsewhere (Router.Stats, DB.QueryCacheStats, per-shard point
// counts) is exported without duplicating it into instruments.
type funcMetric struct {
	name, help, typ string
	collect         func(emit func(labels string, v float64))
}

// NewFunc registers a callback-backed metric. typ is "counter" or "gauge".
// collect is called at scrape time and may emit any number of samples with
// distinct label strings (build them with L).
func (r *Registry) NewFunc(name, help, typ string, collect func(emit func(labels string, v float64))) {
	r.register(&funcMetric{name: name, help: help, typ: typ, collect: collect})
}

func (f *funcMetric) metricName() string { return f.name }

func (f *funcMetric) write(w io.Writer) {
	writeHeader(w, f.name, f.help, f.typ)
	f.collect(func(labels string, v float64) {
		writeSample(w, f.name, labels, v)
	})
}
