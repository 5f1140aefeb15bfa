package main

import (
	"io"
	"math"
	"testing"
)

// The spread must be the one the driver computes with Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchTheExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 40, 20}) // python: [10.0, 20.0, 40.0]
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 3}) // python: [0.5, 2.0, 3.5]
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v .. %v", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "write_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100}
	wide := []float64{70, 100, 130, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", tight, tight, lower, withinBound},
		{"latency up a fifth", tight, []float64{120, 121, 119, 120}, lower, worse},
		{"latency down a fifth", tight, []float64{80, 81, 79, 80}, lower, better},
		{"throughput down a fifth", tight, []float64{80, 81, 79, 80}, higher, worse},
		{"throughput up a fifth", tight, []float64{120, 121, 119, 120}, higher, better},
		{"small move inside wide spread", wide, []float64{72, 103, 133, 103}, lower, unresolved},
		{"small move, every run better", []float64{100, 125, 112, 113}, []float64{99, 98, 97, 99.5}, lower, better},
		{"wide spread but B wins every run", []float64{100, 130, 105, 104}, []float64{99, 98, 97, 99.5}, lower, withinBound},
	} {
		got, _ := judge(tc.a, tc.b, tc.d)
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSetsFailsOnWorseAndOnMoreFailures(t *testing.T) {
	bf := &benchFile{EndToEnd: []metricDef{{Name: "query_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"dashboard-read"})
	run := func(v float64, failed int) record {
		return record{Workload: "dashboard-read", result: result{Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]metricValue{"query_per_s": {v, "1/s"}}}}
	}
	set := func(failed int, vals ...float64) *runSet {
		s := &runSet{}
		for _, v := range vals {
			s.Runs = append(s.Runs, run(v, failed))
		}
		return s
	}
	base := set(0, 800, 805, 795)
	devnull := io.Discard
	if code := compareSets(devnull, bf, base, set(0, 802, 799, 801)); code != 0 {
		t.Errorf("equal sets exit %d", code)
	}
	if code := compareSets(devnull, bf, base, set(0, 600, 605, 595)); code == 0 {
		t.Error("a quarter less throughput passed")
	}
	if code := compareSets(devnull, bf, base, set(3, 800, 805, 795)); code == 0 {
		t.Error("a higher failed share passed")
	}
	if s := spread([]float64{90, 100, 110, 100}); math.Abs(s-0.15) > 1e-9 {
		t.Errorf("spread = %v", s)
	}
}
