package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 1..100, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {99.9, 100}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{15, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: p%v, want p%v", tc.n, got, tc.want)
		}
	}
}

// A stall must be charged to the requests it delayed: their latency runs
// from the due time, and the lateness is reported.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stall = 80 * time.Millisecond
	p := openLoop(1, 100, 300*time.Millisecond, func(_, i int) bool {
		if i == 2 {
			time.Sleep(stall)
		}
		return true
	})
	if p.n != 30 || p.failed != 0 {
		t.Fatalf("ran %d requests (%d failed), want 30", p.n, p.failed)
	}
	// Request 3 was due 10 ms into the stall: it waits ~70 ms, and that
	// wait is latency although its own service took no time.
	if p.lateMS[3] < 50 || p.latMS[3] < p.lateMS[3] {
		t.Errorf("request 3: late %.1f ms, latency %.1f ms", p.lateMS[3], p.latMS[3])
	}
	if p.latMS[2] < ms(stall) {
		t.Errorf("stalled request has latency %.1f ms", p.latMS[2])
	}
	// The backlog drains: the last request is on time again.
	if p.lateMS[29] > 20 {
		t.Errorf("last request still %.1f ms late", p.lateMS[29])
	}
	if percentile(append([]float64(nil), p.lateMS...), 99) < 50 {
		t.Error("the stall does not show in the lateness tail")
	}
}

func TestFailedRequestMissesEveryLimit(t *testing.T) {
	var p phase
	p.record(false, time.Millisecond, 0)
	if p.failed != 1 || p.latMS[0] != ms(requestTimeout) {
		t.Errorf("failed request accounted as %+v", p)
	}
}

func TestRateIsTheMiddleOfTheWindows(t *testing.T) {
	// 10 completions in each of three windows, 2 in a stalled one, and 4
	// after the last whole window, which do not count.
	var done []time.Duration
	for w, n := range []int{10, 2, 10, 10, 4} {
		for i := 0; i < n; i++ {
			done = append(done, rateWindow*time.Duration(w)+rateWindow*time.Duration(i)/10)
		}
	}
	p := phase{wall: 4*rateWindow + rateWindow/2, n: 36, windows: windowCounts(4*rateWindow+rateWindow/2, done)}
	if got, want := p.ratePerS(), 10/rateWindow.Seconds(); got != want {
		t.Errorf("rate %.1f/s, want %.1f/s", got, want)
	}
	// A later loop's windows join the first's.
	p.add(phase{wall: 2 * rateWindow, windows: []float64{10, 10}})
	if len(p.windows) != 6 || p.ratePerS() != 10/rateWindow.Seconds() {
		t.Errorf("after add: windows %v, rate %.1f/s", p.windows, p.ratePerS())
	}
}
