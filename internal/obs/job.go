package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Job is the lifecycle of one background loop — the only one in the stack
// (retention sweeps, checkpoints, WAL interval syncs, hint drain): it runs
// a function every period and/or when kicked, one run at a time on one
// goroutine, kicks arriving meanwhile coalesced into one more run. Stop means no new run starts and the one in flight
// has returned, so an owner stops its jobs before it closes what they
// touch. The zero Job is idle; set Floor and MaxBackoff before Every.
type Job struct {
	// Floor drops a kick arriving within Floor of the previous run's
	// start: the work is retried by the next trigger, never by a timer.
	Floor time.Duration
	// MaxBackoff > 0 makes a failed run double the wait before the next
	// timed run, up to MaxBackoff periods; a success or a kick resets it.
	MaxBackoff int

	mu        sync.Mutex
	fn        func(context.Context) error
	period    time.Duration
	kicked    bool
	lastStart time.Time
	wake      chan struct{} // capacity 1: a kick or a new period is waiting
	cancel    context.CancelFunc
	done      chan struct{} // closed when the loop goroutine has returned
	stopped   bool
	stats     atomic.Pointer[JobStats]
}

// Every sets what the job runs and how often; period <= 0 leaves it to
// Kick alone. A call on a live job replaces both from the next run on and
// restarts the wait. fn's context is cancelled by Stop.
func (j *Job) Every(period time.Duration, fn func(context.Context) error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.period, j.fn = period, fn
	if period > 0 || j.done != nil {
		j.wakeLocked()
	}
}

// Kick asks for a run now. It never blocks and never runs fn itself.
func (j *Job) Kick() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fn == nil || j.Floor > 0 && time.Since(j.lastStart) < j.Floor {
		return
	}
	j.kicked = true
	j.wakeLocked()
}

// wakeLocked signals the loop, starting its goroutine on first use.
func (j *Job) wakeLocked() {
	if j.stopped {
		return
	}
	if j.done == nil {
		var ctx context.Context
		ctx, j.cancel = context.WithCancel(context.Background())
		j.wake, j.done = make(chan struct{}, 1), make(chan struct{})
		go j.loop(ctx)
	}
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// Stop halts the job for good and waits for the run in flight; Every and
// Kick are no-ops afterwards. It must not be called from fn.
func (j *Job) Stop() {
	j.mu.Lock()
	j.stopped = true
	cancel, done := j.cancel, j.done
	j.mu.Unlock()
	if done != nil {
		cancel()
		<-done
	}
}

// Export attaches the stats every later run is counted into.
func (j *Job) Export(s *JobStats) { j.stats.Store(s) }

func (j *Job) loop(ctx context.Context) {
	defer close(j.done)
	timer := time.NewTimer(time.Hour) // the wake that follows every start re-arms or stops it
	defer timer.Stop()
	var wait time.Duration // backed-off wait; below period means none
	for {
		run := false
		select {
		case <-ctx.Done():
			return
		case <-j.wake:
		case <-timer.C:
			run = true
		}
		j.mu.Lock()
		fn, period := j.fn, j.period
		if j.kicked {
			j.kicked, run, wait = false, true, 0
		}
		if run {
			j.lastStart = time.Now()
		}
		start := j.lastStart
		j.mu.Unlock()
		if run && ctx.Err() == nil {
			err := fn(ctx)
			if s := j.stats.Load(); s != nil {
				s.observe(start, err)
			}
			if err != nil && j.MaxBackoff > 0 {
				wait = min(2*max(wait, period), time.Duration(j.MaxBackoff)*period)
			} else {
				wait = 0
			}
		}
		if period > 0 {
			timer.Reset(max(wait, period))
		} else {
			timer.Stop()
		}
	}
}

// JobStats counts the runs of every Job of one name in a process (each
// database has its own retention job; /metrics has one retention series).
type JobStats struct {
	name           string
	runs, failures atomic.Uint64
	busyNS, lastOK atomic.Int64 // summed run time; unix ns of the last success
}

func (s *JobStats) observe(start time.Time, err error) {
	end := time.Now()
	s.runs.Add(1)
	s.busyNS.Add(int64(end.Sub(start)))
	if err != nil {
		s.failures.Add(1)
	} else {
		s.lastOK.Store(end.UnixNano())
	}
}

// NewJob returns the stats of a background job, exported under job=name in
// the registry's four lms_job_* families.
func (r *Registry) NewJob(name string) *JobStats {
	s := &JobStats{name: name}
	r.mu.Lock()
	r.jobs = append(r.jobs, s)
	first := len(r.jobs) == 1
	r.mu.Unlock()
	if !first {
		return s
	}
	family := func(name, help, typ string, v func(*JobStats) float64) {
		r.NewFunc(name, help, typ, func(emit func(string, float64)) {
			r.mu.Lock()
			jobs := r.jobs[:len(r.jobs):len(r.jobs)]
			r.mu.Unlock()
			for _, s := range jobs {
				emit(L("job", s.name), v(s))
			}
		})
	}
	family("lms_job_runs_total", "Runs of each background job.", "counter",
		func(s *JobStats) float64 { return float64(s.runs.Load()) })
	family("lms_job_failures_total", "Runs of each background job that returned an error.", "counter",
		func(s *JobStats) float64 { return float64(s.failures.Load()) })
	family("lms_job_run_seconds_total", "Time spent inside the runs of each background job.", "counter",
		func(s *JobStats) float64 { return time.Duration(s.busyNS.Load()).Seconds() })
	family("lms_job_last_success_timestamp_seconds", "Unix time the last successful run of each background job ended (0 = none yet).", "gauge",
		func(s *JobStats) float64 { return float64(s.lastOK.Load()) / 1e9 })
	return s
}
