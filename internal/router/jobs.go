package router

import (
	"sync"
	"time"

	"repro/internal/lineproto"
)

// Job is one registered job with its monitoring tags. A registered Job
// is never written to: enrichment reads its Tags without a copy, and End
// files a stamped copy in the history.
type Job struct {
	ID    string            `json:"jobid"`
	User  string            `json:"username,omitempty"`
	Nodes []string          `json:"nodes"`
	Tags  map[string]string `json:"tags,omitempty"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end,omitempty"`

	// tags is Tags in a point's shape and user its username tag, set once
	// by Start: what enrichment merges and duplicates by.
	tags []lineproto.Tag
	user string
}

// JobRegistry is the router's one job store: the running jobs by id, the
// same jobs stacked per host in start order, and a bounded history of
// finished ones. The per-host stacks are the paper's tag store (Sect.
// III-A: "the only mandatory tag for all metrics and events is the host
// name which is used as key in the tag store's hash table"): the newest
// job on a shared node wins, and an earlier one is restored when it ends.
// One lock covers all three, so enrichment never sees a job half started
// or half ended.
type JobRegistry struct {
	mu         sync.RWMutex
	running    map[string]*Job
	hosts      map[string][]*Job // running jobs per node, oldest first
	history    []*Job
	maxHistory int
}

// NewJobRegistry returns a registry keeping up to maxHistory finished jobs.
func NewJobRegistry(maxHistory int) *JobRegistry {
	return &JobRegistry{running: make(map[string]*Job), hosts: make(map[string][]*Job), maxHistory: maxHistory}
}

// Start registers a running job on its nodes. Duplicate ids are rejected.
func (r *JobRegistry) Start(job *Job) error {
	job.tags, job.user = lineproto.TagsFrom(job.Tags), job.Tags["username"]
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.running[job.ID]; ok {
		return errDuplicateJob(job.ID)
	}
	r.running[job.ID] = job
	for _, node := range job.Nodes {
		r.hosts[node] = append(r.hosts[node], job)
	}
	return nil
}

// Lookup returns the newest running job on host, nil if there is none.
func (r *JobRegistry) Lookup(host string) *Job {
	r.mu.RLock()
	defer r.mu.RUnlock()
	jobs := r.hosts[host]
	if len(jobs) == 0 {
		return nil
	}
	return jobs[len(jobs)-1]
}

type errDuplicateJob string

func (e errDuplicateJob) Error() string { return "router: job " + string(e) + " already running" }

type errUnknownJob string

func (e errUnknownJob) Error() string { return "router: job " + string(e) + " not running" }

// End takes a job off its nodes and moves it to history, stamping its end
// time, and returns it.
func (r *JobRegistry) End(jobID string, end time.Time) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	job, ok := r.running[jobID]
	if !ok {
		return nil, errUnknownJob(jobID)
	}
	delete(r.running, jobID)
	for _, node := range job.Nodes {
		jobs := r.hosts[node]
		for i, j := range jobs {
			if j == job {
				jobs = append(jobs[:i:i], jobs[i+1:]...)
				break
			}
		}
		if len(jobs) == 0 {
			delete(r.hosts, node)
		} else {
			r.hosts[node] = jobs
		}
	}
	ended := *job
	ended.End = end
	r.history = append(r.history, &ended)
	if len(r.history) > r.maxHistory {
		r.history = r.history[len(r.history)-r.maxHistory:]
	}
	return &ended, nil
}

// Get finds a job by id among running and finished jobs.
func (r *JobRegistry) Get(jobID string) (*Job, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if job, ok := r.running[jobID]; ok {
		return job, true
	}
	for i := len(r.history) - 1; i >= 0; i-- {
		if r.history[i].ID == jobID {
			return r.history[i], true
		}
	}
	return nil, false
}

// Running returns a snapshot of the running jobs.
func (r *JobRegistry) Running() []*Job {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Job, 0, len(r.running))
	for _, j := range r.running {
		out = append(out, j)
	}
	return out
}
