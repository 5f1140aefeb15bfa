package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("lms_test_points_total", "points seen")
	r.NewFunc("lms_test_inflight", "in flight", "gauge", func(emit func(string, float64)) { emit("", 5) })
	c.Add(41)
	c.Inc()
	out := render(r)
	for _, want := range []string{
		"# HELP lms_test_points_total points seen",
		"# TYPE lms_test_points_total counter",
		"lms_test_points_total 42",
		"# TYPE lms_test_inflight gauge",
		"lms_test_inflight 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 42 {
		t.Fatalf("Value() = %d, want 42", c.Value())
	}
}

func TestRegistryOrderAndDuplicates(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zzz_total", "z")
	r.NewCounter("aaa_total", "a")
	out := render(r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("metrics not sorted by name:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("aaa_total", "dup")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lms_test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if n := h.count.Load(); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	out := render(r)
	for _, want := range []string{
		"# TYPE lms_test_seconds histogram",
		`lms_test_seconds_bucket{le="0.1"} 1`,
		`lms_test_seconds_bucket{le="1"} 3`,
		`lms_test_seconds_bucket{le="10"} 4`,
		`lms_test_seconds_bucket{le="+Inf"} 5`,
		"lms_test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("b_seconds", "b", []float64{1})
	h.Observe(1) // le="1" is inclusive in Prometheus semantics
	if !strings.Contains(render(r), `b_seconds_bucket{le="1"} 1`) {
		t.Fatalf("observation at the boundary not counted in its bucket:\n%s", render(r))
	}
}

func TestFuncMetricAndLabels(t *testing.T) {
	r := NewRegistry()
	r.NewFunc("lms_test_shard_points", "per shard", "gauge", func(emit func(string, float64)) {
		emit(L("db", "lms", "shard", "0"), 10)
		emit(L("db", `we"ird\`), 3)
	})
	out := render(r)
	for _, want := range []string{
		`lms_test_shard_points{db="lms",shard="0"} 10`,
		`lms_test_shard_points{db="we\"ird\\"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 0") {
		t.Fatalf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestGateBudgets(t *testing.T) {
	g := NewGate(2, 100)
	rel1, ok := g.Acquire(60)
	if !ok {
		t.Fatal("first acquire refused")
	}
	if _, ok := g.Acquire(60); ok {
		t.Fatal("byte budget not enforced")
	}
	rel2, ok := g.Acquire(30)
	if !ok {
		t.Fatal("within-budget acquire refused")
	}
	if _, ok := g.Acquire(0); ok {
		t.Fatal("request budget not enforced")
	}
	if g.Shed() != 2 {
		t.Fatalf("Shed = %d, want 2", g.Shed())
	}
	reqs, bytes := g.InFlight()
	if reqs != 2 || bytes != 90 {
		t.Fatalf("InFlight = %d, %d; want 2, 90", reqs, bytes)
	}
	rel1()
	rel1() // double release must not underflow
	rel2()
	reqs, bytes = g.InFlight()
	if reqs != 0 || bytes != 0 {
		t.Fatalf("after release InFlight = %d, %d; want 0, 0", reqs, bytes)
	}
}

func TestGateUnlimitedAndNil(t *testing.T) {
	var nilGate *Gate
	rel, ok := nilGate.Acquire(1 << 40)
	if !ok {
		t.Fatal("nil gate refused")
	}
	rel()
	g := NewGate(0, 0)
	for i := 0; i < 100; i++ {
		if _, ok := g.Acquire(1 << 30); !ok {
			t.Fatal("unlimited gate refused")
		}
	}
}

func TestGateConcurrent(t *testing.T) {
	g := NewGate(8, 0)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if rel, ok := g.Acquire(16); ok {
					rel()
				}
			}
		}()
	}
	wg.Wait()
	if reqs, bytes := g.InFlight(); reqs != 0 || bytes != 0 {
		t.Fatalf("leaked in-flight state: %d reqs, %d bytes", reqs, bytes)
	}
}
