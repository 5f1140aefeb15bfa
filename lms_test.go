package lms

import (
	"context"
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring
// examples/quickstart.
func TestFacadeQuickstart(t *testing.T) {
	stack, sim, err := NewSimulatedStack(
		StackConfig{PerUserDBs: true},
		SimConfig{Nodes: 2, CollectInterval: 60},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if err := sim.SubmitJob(JobRequest{ID: "q1", User: "alice", Nodes: 2}, NewTriad(20, 600)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(900); err != nil {
		t.Fatal(err)
	}
	fin := sim.Sched.Finished()
	if len(fin) != 1 {
		t.Fatalf("finished %d", len(fin))
	}
	rep, err := stack.Evaluator.Evaluate(sim.JobMeta(fin[0]))
	if err != nil {
		t.Fatal(err)
	}
	table := rep.FormatTable()
	if !strings.Contains(table, "Job q1 (user alice) on 2 nodes") {
		t.Fatalf("table:\n%s", table)
	}
	if stack.Store.DB("user_alice") == nil {
		t.Fatal("per-user database missing")
	}
}

// TestFacadeWorkloads checks the exported workload constructors.
func TestFacadeWorkloads(t *testing.T) {
	models := []WorkloadModel{
		NewTriad(4, 100),
		NewDGEMM(4, 100),
		NewMiniMD(4, 65536, 500),
		NewIdleBreak(4, 100, 30, 60),
		&LoadImbalance{Cores: 4, RuntimeSecs: 100},
	}
	for _, m := range models {
		if m.Name() == "" || m.Duration() <= 0 {
			t.Errorf("%T: bad model", m)
		}
	}
	if !SimTime(0).Equal(SimTime(0)) {
		t.Fatal("SimTime")
	}
}

// TestFacadeJobMetaAndQueries checks the stack's DB is reachable through
// the facade types.
func TestFacadeJobMetaAndQueries(t *testing.T) {
	stack, sim, err := NewSimulatedStack(StackConfig{}, SimConfig{Nodes: 1, CollectInterval: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if err := sim.SubmitJob(JobRequest{ID: "j", User: "u", Nodes: 1}, NewDGEMM(20, 300)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(600); err != nil {
		t.Fatal(err)
	}
	res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "likwid_mem_dp",
		Filter:      tsdb.TagFilter{"jobid": "j"},
		Cols:        []tsdb.AggCol{{Field: "*", Agg: tsdb.AggCount}},
	})
	if err != nil || len(res) == 0 {
		t.Fatalf("%v %v", res, err)
	}
	if res[0].Rows[0].Values[0].IntVal() == 0 {
		t.Fatal("no tagged HPM points")
	}
}
