package obs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond; the jobs under test run on their own goroutine and
// signal nothing beyond what fn does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestJobKickCoalescesSingleFlight: kicks that arrive while a run is in
// flight start exactly one more run, never a concurrent one.
func TestJobKickCoalescesSingleFlight(t *testing.T) {
	var j Job
	var runs, inFlight atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	j.Every(0, func(context.Context) error {
		if inFlight.Add(1) != 1 {
			t.Error("two runs in flight")
		}
		defer inFlight.Add(-1)
		runs.Add(1)
		entered <- struct{}{}
		<-release
		return nil
	})
	defer j.Stop()
	j.Kick()
	<-entered
	for i := 0; i < 100; i++ {
		j.Kick()
	}
	release <- struct{}{}
	<-entered // the one coalesced run
	release <- struct{}{}
	select {
	case <-entered:
		t.Fatal("100 kicks during one run started more than one more run")
	case <-time.After(30 * time.Millisecond):
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
}

// TestJobStopWaits: Stop returns only once the run in flight has, cancels
// its context, and nothing starts afterwards.
func TestJobStopWaits(t *testing.T) {
	var j Job
	var runs atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	var cancelled atomic.Bool
	j.Every(time.Millisecond, func(ctx context.Context) error {
		runs.Add(1)
		entered <- struct{}{}
		<-release
		cancelled.Store(ctx.Err() != nil)
		return nil
	})
	<-entered
	stopped := make(chan struct{})
	go func() { j.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a run was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	<-stopped
	if !cancelled.Load() {
		t.Error("Stop did not cancel the context of the run in flight")
	}
	j.Kick()
	j.Every(time.Millisecond, func(context.Context) error { runs.Add(1); return nil })
	time.Sleep(20 * time.Millisecond)
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d after Stop, want 1", got)
	}
	j.Stop() // idempotent
	var idle Job
	idle.Stop() // a job that never started has nothing to wait for
}

// TestJobFloorDropsKicks: a kick inside the floor is dropped — not
// deferred to a timer — and the first one past it runs.
func TestJobFloorDropsKicks(t *testing.T) {
	j := Job{Floor: 50 * time.Millisecond}
	var runs atomic.Int32
	j.Every(0, func(context.Context) error { runs.Add(1); return errors.New("disk full") })
	defer j.Stop()
	j.Kick()
	waitFor(t, "the first run", func() bool { return runs.Load() == 1 })
	j.Kick()
	time.Sleep(80 * time.Millisecond)
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d: a kick inside the floor ran (or was retried by a timer)", got)
	}
	j.Kick()
	waitFor(t, "the run past the floor", func() bool { return runs.Load() == 2 })
}

// TestJobBackoff: failed runs double the wait up to MaxBackoff periods; a
// success or a kick resets it.
func TestJobBackoff(t *testing.T) {
	const period = 10 * time.Millisecond
	j := Job{MaxBackoff: 4}
	var mu sync.Mutex
	var starts []time.Time
	fail := true
	j.Every(period, func(context.Context) error {
		mu.Lock()
		defer mu.Unlock()
		starts = append(starts, time.Now())
		if fail {
			return errors.New("peer down")
		}
		return nil
	})
	defer j.Stop()
	n := func() int { mu.Lock(); defer mu.Unlock(); return len(starts) }
	gap := func(i int) time.Duration { mu.Lock(); defer mu.Unlock(); return starts[i].Sub(starts[i-1]) }

	waitFor(t, "five failing runs", func() bool { return n() >= 5 })
	// Waits after failures 1..4: 2, 4, 4, 4 periods. Timers only ever fire
	// late, so lower bounds are exact and upper bounds take the best of a few.
	for i, want := range []time.Duration{2 * period, 4 * period, 4 * period, 4 * period} {
		if g := gap(i + 1); g < want {
			t.Errorf("gap %d = %v, want >= %v", i+1, g, want)
		}
	}
	if g := min(gap(3), gap(4)); g >= 8*period {
		t.Errorf("gaps 3, 4 >= %v: back-off kept doubling past MaxBackoff periods", g)
	}

	// A kick runs now and resets the back-off: the next wait is 2 periods.
	best := time.Hour
	for i := 0; i < 3; i++ {
		at := n()
		j.Kick()
		waitFor(t, "the kicked run and its retry", func() bool { return n() >= at+2 })
		best = min(best, gap(at+1))
	}
	if best >= 4*period {
		t.Errorf("best gap after a kick = %v: the kick did not reset the back-off", best)
	}

	// Progress resets it too: back to one period.
	mu.Lock()
	fail = false
	mu.Unlock()
	at := n()
	waitFor(t, "four good runs", func() bool { return n() >= at+4 })
	if g := min(gap(at+2), gap(at+3)); g >= 2*period {
		t.Errorf("gaps between good runs >= %v, want about one period", g)
	}
}

// TestJobEveryReplaces: Every on a live job swaps period and function;
// period 0 halts the timed runs without stopping the job.
func TestJobEveryReplaces(t *testing.T) {
	var j Job
	var a, b atomic.Int32
	j.Every(time.Millisecond, func(context.Context) error { a.Add(1); return nil })
	defer j.Stop()
	waitFor(t, "the first function", func() bool { return a.Load() > 0 })
	j.Every(time.Millisecond, func(context.Context) error { b.Add(1); return nil })
	waitFor(t, "the second function", func() bool { return b.Load() > 0 })
	j.Every(0, func(context.Context) error { b.Add(1); return nil })
	time.Sleep(5 * time.Millisecond) // a run the timer already started may still land
	was := b.Load()
	time.Sleep(20 * time.Millisecond)
	if got := b.Load(); got != was {
		t.Fatalf("period 0 kept running: %d -> %d", was, got)
	}
	j.Kick()
	waitFor(t, "a kicked run", func() bool { return b.Load() == was+1 })
}

// TestJobStatsExported: every run is counted, timed and exported under its
// job label, from the one place that runs it.
func TestJobStatsExported(t *testing.T) {
	reg := NewRegistry()
	good, bad := reg.NewJob("retention"), reg.NewJob("checkpoint")
	var g, b Job
	g.Export(good)
	b.Export(bad)
	g.Every(0, func(context.Context) error { time.Sleep(time.Millisecond); return nil })
	b.Every(0, func(context.Context) error { return errors.New("ENOSPC") })
	g.Kick()
	b.Kick()
	waitFor(t, "both runs", func() bool { return good.runs.Load() == 1 && bad.runs.Load() == 1 })
	g.Stop()
	b.Stop()
	var buf bytes.Buffer
	reg.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		`lms_job_runs_total{job="retention"} 1`,
		`lms_job_runs_total{job="checkpoint"} 1`,
		`lms_job_failures_total{job="retention"} 0`,
		`lms_job_failures_total{job="checkpoint"} 1`,
		`lms_job_last_success_timestamp_seconds{job="checkpoint"} 0`,
		`# TYPE lms_job_run_seconds_total counter`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape lacks %q:\n%s", want, out)
		}
	}
	if good.busyNS.Load() < int64(time.Millisecond) || good.lastOK.Load() == 0 {
		t.Errorf("good job: busy %dns, last success %d", good.busyNS.Load(), good.lastOK.Load())
	}
}
