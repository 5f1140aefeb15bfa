// Package jobsched simulates the batch system of a commodity cluster.
//
// LMS is deliberately independent of the job scheduler software (paper
// Sect. I): the only coupling is that "the compute nodes or a central
// management server must send signals at (de)allocation of a job to the
// router" (Sect. III-A). This package provides that management server: a
// cluster model, a FIFO queue with opportunistic backfill, whole-node
// allocation, and prolog/epilog hooks from which the simulation wires the
// router's job start/end signals.
//
// Time is simulated: the driver calls Advance(dt) and receives the
// allocation events that occurred, keeping the whole stack deterministic.
package jobsched

import (
	"fmt"
	"sort"
	"sync"
)

// Node is one compute node.
type Node struct {
	Name  string
	Cores int
}

// JobRequest describes a submitted job.
type JobRequest struct {
	ID       string
	User     string
	Nodes    int     // requested node count (whole-node allocation)
	Walltime float64 // requested runtime in seconds
	Tags     map[string]string
}

// JobState enumerates the lifecycle.
type JobState int

// Lifecycle states.
const (
	StateQueued JobState = iota
	StateRunning
	StateFinished
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Job is the scheduler's view of a job.
type Job struct {
	Req     JobRequest
	State   JobState
	Nodes   []string // allocated node names
	SubmitT float64
	StartT  float64
	EndT    float64 // actual end (start + walltime)
}

// Event is an allocation change reported by Advance.
type Event struct {
	Start bool // true: job started; false: job ended
	Job   *Job
	Time  float64
}

// Scheduler is a FIFO + backfill batch scheduler over whole nodes.
type Scheduler struct {
	mu      sync.Mutex
	now     float64
	nodes   []Node
	free    map[string]bool
	queue   []*Job
	running map[string]*Job
	done    []*Job

	// Backfill enables starting later queued jobs when the queue head does
	// not fit (simple backfill without reservations; see DESIGN.md).
	Backfill bool
}

// New creates a scheduler over the given nodes.
func New(nodes []Node) (*Scheduler, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("jobsched: empty cluster")
	}
	free := make(map[string]bool, len(nodes))
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.Name == "" || n.Cores <= 0 {
			return nil, fmt.Errorf("jobsched: invalid node %+v", n)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("jobsched: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
		free[n.Name] = true
	}
	return &Scheduler{
		nodes:    append([]Node(nil), nodes...),
		free:     free,
		running:  make(map[string]*Job),
		Backfill: true,
	}, nil
}

// Submit enqueues a job. Jobs requesting more nodes than the cluster has
// are rejected immediately.
func (s *Scheduler) Submit(req JobRequest) error {
	if req.ID == "" {
		return fmt.Errorf("jobsched: empty job id")
	}
	if req.Nodes <= 0 || req.Nodes > len(s.nodes) {
		return fmt.Errorf("jobsched: job %s requests %d nodes, cluster has %d", req.ID, req.Nodes, len(s.nodes))
	}
	if req.Walltime <= 0 {
		return fmt.Errorf("jobsched: job %s has non-positive walltime", req.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.queue {
		if j.Req.ID == req.ID {
			return fmt.Errorf("jobsched: job %s already queued", req.ID)
		}
	}
	if _, ok := s.running[req.ID]; ok {
		return fmt.Errorf("jobsched: job %s already running", req.ID)
	}
	s.queue = append(s.queue, &Job{Req: req, State: StateQueued, SubmitT: s.now})
	return nil
}

// freeCount returns the number of free nodes (lock held).
func (s *Scheduler) freeCount() int {
	n := 0
	for _, f := range s.free {
		if f {
			n++
		}
	}
	return n
}

// allocate picks nodes for a job (lock held). Nodes are assigned in name
// order for determinism.
func (s *Scheduler) allocate(n int) []string {
	names := make([]string, 0, n)
	keys := make([]string, 0, len(s.free))
	for name, f := range s.free {
		if f {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	for _, name := range keys {
		if len(names) == n {
			break
		}
		names = append(names, name)
		s.free[name] = false
	}
	return names
}

// schedule starts queued jobs that fit (lock held) and returns start events.
func (s *Scheduler) schedule() []Event {
	var events []Event
	for i := 0; i < len(s.queue); {
		job := s.queue[i]
		if job.Req.Nodes <= s.freeCount() {
			job.Nodes = s.allocate(job.Req.Nodes)
			job.State = StateRunning
			job.StartT = s.now
			job.EndT = s.now + job.Req.Walltime
			s.running[job.Req.ID] = job
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			events = append(events, Event{Start: true, Job: job, Time: s.now})
			continue // i now points at the next job
		}
		if !s.Backfill {
			break // strict FIFO: head blocks the queue
		}
		i++
	}
	return events
}

// Advance moves simulated time forward by dt seconds and returns the
// allocation events in chronological order. Jobs end exactly at their
// walltime; freed nodes are immediately eligible for queued jobs.
func (s *Scheduler) Advance(dt float64) ([]Event, error) {
	if dt < 0 {
		return nil, fmt.Errorf("jobsched: negative dt")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.now + dt
	var events []Event
	for {
		// Find the earliest job end within the window.
		var next *Job
		for _, j := range s.running {
			if j.EndT <= target && (next == nil || j.EndT < next.EndT ||
				(j.EndT == next.EndT && j.Req.ID < next.Req.ID)) {
				next = j
			}
		}
		if next == nil {
			break
		}
		s.now = next.EndT
		next.State = StateFinished
		delete(s.running, next.Req.ID)
		for _, n := range next.Nodes {
			s.free[n] = true
		}
		s.done = append(s.done, next)
		events = append(events, Event{Start: false, Job: next, Time: s.now})
		events = append(events, s.schedule()...)
	}
	s.now = target
	events = append(events, s.schedule()...)
	return events, nil
}

// Running returns the running jobs sorted by id.
func (s *Scheduler) Running() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Req.ID < out[j].Req.ID })
	return out
}

// Finished returns the finished jobs in completion order.
func (s *Scheduler) Finished() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.done...)
}
