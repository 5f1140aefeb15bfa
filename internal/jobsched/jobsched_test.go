package jobsched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func cluster(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Name: fmt.Sprintf("node%02d", i+1), Cores: 8}
	}
	return nodes
}

func newSched(t *testing.T, n int) *Scheduler {
	t.Helper()
	s, err := New(cluster(n))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := New([]Node{{Name: "", Cores: 8}}); err == nil {
		t.Error("anonymous node accepted")
	}
	if _, err := New([]Node{{Name: "a", Cores: 0}}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New([]Node{{Name: "a", Cores: 8}, {Name: "a", Cores: 8}}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSched(t, 4)
	cases := []JobRequest{
		{ID: "", Nodes: 1, Walltime: 10},
		{ID: "a", Nodes: 0, Walltime: 10},
		{ID: "a", Nodes: 5, Walltime: 10},
		{ID: "a", Nodes: 1, Walltime: 0},
	}
	for i, req := range cases {
		if err := s.Submit(req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
	if err := s.Submit(JobRequest{ID: "a", Nodes: 1, Walltime: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobRequest{ID: "a", Nodes: 1, Walltime: 10}); err == nil {
		t.Error("duplicate queued id accepted")
	}
	if _, err := s.Advance(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobRequest{ID: "a", Nodes: 1, Walltime: 10}); err == nil {
		t.Error("duplicate running id accepted")
	}
	if _, err := s.Advance(-1); err == nil {
		t.Error("negative advance accepted")
	}
}

func TestFIFOStartAndEnd(t *testing.T) {
	s := newSched(t, 4)
	_ = s.Submit(JobRequest{ID: "j1", User: "alice", Nodes: 2, Walltime: 100})
	_ = s.Submit(JobRequest{ID: "j2", User: "bob", Nodes: 2, Walltime: 50})
	events, err := s.Advance(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || !events[0].Start || !events[1].Start {
		t.Fatalf("events %+v", events)
	}
	if events[0].Job.Req.ID != "j1" || events[1].Job.Req.ID != "j2" {
		t.Fatalf("order %+v", events)
	}
	if n := s.freeCount(); n != 0 {
		t.Fatalf("%d nodes free", n)
	}
	// j2 ends at t=50, j1 at t=100.
	events, _ = s.Advance(60)
	if len(events) != 1 || events[0].Start || events[0].Job.Req.ID != "j2" {
		t.Fatalf("events %+v", events)
	}
	if events[0].Time != 50 {
		t.Fatalf("end time %v", events[0].Time)
	}
	events, _ = s.Advance(60)
	if len(events) != 1 || events[0].Job.Req.ID != "j1" || events[0].Time != 100 {
		t.Fatalf("events %+v", events)
	}
	if len(s.Finished()) != 2 || s.freeCount() != 4 {
		t.Fatal("cleanup")
	}
}

func TestAllocationDeterministic(t *testing.T) {
	s := newSched(t, 4)
	_ = s.Submit(JobRequest{ID: "j1", Nodes: 2, Walltime: 10})
	events, _ := s.Advance(0)
	nodes := events[0].Job.Nodes
	if len(nodes) != 2 || nodes[0] != "node01" || nodes[1] != "node02" {
		t.Fatalf("nodes %v", nodes)
	}
}

func TestQueueWhenFull(t *testing.T) {
	s := newSched(t, 2)
	_ = s.Submit(JobRequest{ID: "j1", Nodes: 2, Walltime: 100})
	_ = s.Submit(JobRequest{ID: "j2", Nodes: 1, Walltime: 10})
	events, _ := s.Advance(0)
	if len(events) != 1 {
		t.Fatalf("events %+v", events)
	}
	if len(s.queue) != 1 {
		t.Fatal("j2 should queue")
	}
	// j2 starts right when j1 ends.
	events, _ = s.Advance(150)
	var started, ended []string
	for _, e := range events {
		if e.Start {
			started = append(started, e.Job.Req.ID)
		} else {
			ended = append(ended, e.Job.Req.ID)
		}
	}
	if len(ended) != 2 || len(started) != 1 || started[0] != "j2" {
		t.Fatalf("events %+v", events)
	}
	// j2 ran 100..110.
	j2 := s.Finished()[1]
	if j2.StartT != 100 || j2.EndT != 110 {
		t.Fatalf("j2 times %v %v", j2.StartT, j2.EndT)
	}
}

func TestBackfill(t *testing.T) {
	s := newSched(t, 4)
	_ = s.Submit(JobRequest{ID: "big", Nodes: 3, Walltime: 100})
	_ = s.Submit(JobRequest{ID: "huge", Nodes: 4, Walltime: 100}) // blocks head
	_ = s.Submit(JobRequest{ID: "small", Nodes: 1, Walltime: 10}) // backfills
	events, _ := s.Advance(0)
	ids := map[string]bool{}
	for _, e := range events {
		if e.Start {
			ids[e.Job.Req.ID] = true
		}
	}
	if !ids["big"] || !ids["small"] || ids["huge"] {
		t.Fatalf("started %v", ids)
	}
	// Without backfill, small waits behind huge.
	s2 := newSched(t, 4)
	s2.Backfill = false
	_ = s2.Submit(JobRequest{ID: "big", Nodes: 3, Walltime: 100})
	_ = s2.Submit(JobRequest{ID: "huge", Nodes: 4, Walltime: 100})
	_ = s2.Submit(JobRequest{ID: "small", Nodes: 1, Walltime: 10})
	events, _ = s2.Advance(0)
	if len(events) != 1 || events[0].Job.Req.ID != "big" {
		t.Fatalf("fifo events %+v", events)
	}
}

func TestJobStateString(t *testing.T) {
	if StateQueued.String() != "queued" || StateRunning.String() != "running" || StateFinished.String() != "finished" {
		t.Fatal("state names")
	}
	if JobState(9).String() == "" {
		t.Fatal("unknown state")
	}
}

func TestEventTimesMonotonic(t *testing.T) {
	s := newSched(t, 3)
	for i := 0; i < 9; i++ {
		_ = s.Submit(JobRequest{ID: fmt.Sprintf("j%d", i), Nodes: 1 + i%3, Walltime: float64(10 + i*7)})
	}
	var all []Event
	for i := 0; i < 20; i++ {
		events, err := s.Advance(25)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, events...)
	}
	prev := -1.0
	for _, e := range all {
		if e.Time < prev {
			t.Fatalf("events out of order: %v after %v", e.Time, prev)
		}
		prev = e.Time
	}
	if len(s.Finished()) != 9 {
		t.Fatalf("finished %d", len(s.Finished()))
	}
}

// Property: never more nodes allocated than exist, and every started job
// eventually ends with start <= end and pairwise-disjoint concurrent
// allocations.
func TestNoOversubscriptionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		_ = seed
		nNodes := r.Intn(6) + 2
		s, err := New(cluster(nNodes))
		if err != nil {
			return false
		}
		njobs := r.Intn(20) + 5
		for i := 0; i < njobs; i++ {
			_ = s.Submit(JobRequest{
				ID:       fmt.Sprintf("j%d", i),
				Nodes:    r.Intn(nNodes) + 1,
				Walltime: float64(r.Intn(100) + 1),
			})
		}
		type span struct {
			start, end float64
			nodes      []string
		}
		open := map[string]*span{}
		var closed []span
		for step := 0; step < 50; step++ {
			events, err := s.Advance(float64(r.Intn(30) + 1))
			if err != nil {
				return false
			}
			for _, e := range events {
				if e.Start {
					open[e.Job.Req.ID] = &span{start: e.Time, nodes: e.Job.Nodes}
				} else {
					sp := open[e.Job.Req.ID]
					if sp == nil {
						return false // end without start
					}
					sp.end = e.Time
					if sp.end < sp.start {
						return false
					}
					closed = append(closed, *sp)
					delete(open, e.Job.Req.ID)
				}
			}
			// Concurrent running jobs never share nodes.
			used := map[string]bool{}
			for _, j := range s.Running() {
				for _, n := range j.Nodes {
					if used[n] {
						return false
					}
					used[n] = true
				}
			}
			if len(used) > nNodes {
				return false
			}
		}
		// Drain: enough simulated time for every queued job to run.
		events, err := s.Advance(float64(njobs) * 200)
		if err != nil {
			return false
		}
		for _, e := range events {
			if e.Start {
				open[e.Job.Req.ID] = &span{start: e.Time, nodes: e.Job.Nodes}
			} else {
				sp := open[e.Job.Req.ID]
				if sp == nil || e.Time < sp.start {
					return false
				}
				sp.end = e.Time
				closed = append(closed, *sp)
				delete(open, e.Job.Req.ID)
			}
		}
		return len(open) == 0 && len(closed) == njobs && len(s.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: start/end signal ordering per job (start strictly before end in
// the event stream).
func TestSignalOrderingProperty(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	f := func(seed int64) bool {
		_ = seed
		s, _ := New(cluster(3))
		n := r.Intn(10) + 2
		for i := 0; i < n; i++ {
			_ = s.Submit(JobRequest{ID: fmt.Sprintf("j%d", i), Nodes: r.Intn(3) + 1, Walltime: float64(r.Intn(50) + 1)})
		}
		seenStart := map[string]bool{}
		for step := 0; step < 40; step++ {
			events, _ := s.Advance(20)
			for _, e := range events {
				id := e.Job.Req.ID
				if e.Start {
					if seenStart[id] {
						return false // double start
					}
					seenStart[id] = true
				} else if !seenStart[id] {
					return false // end before start
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
