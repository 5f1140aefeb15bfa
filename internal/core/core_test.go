package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/hpm"
	"repro/internal/jobsched"
	"repro/internal/lineproto"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

func smallTopo() hpm.Topology {
	return hpm.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1, BaseClockMHz: 2200}
}

func newSim(t *testing.T, nodes int) (*Stack, *Simulation) {
	t.Helper()
	stack, sim, err := NewSimulatedStack(
		StackConfig{PerUserDBs: true},
		SimConfig{Nodes: nodes, Topology: smallTopo(), CollectInterval: 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stack.Close() })
	return stack, sim
}

func TestNewStackDefaults(t *testing.T) {
	stack, err := NewStack(StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if stack.DBName() != "lms" || stack.DB == nil || stack.Router == nil {
		t.Fatalf("%+v", stack)
	}
	if stack.Publisher != nil {
		t.Fatal("publisher without address")
	}
}

func TestNewStackWithPublisher(t *testing.T) {
	stack, err := NewStack(StackConfig{PubSubAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if stack.Publisher == nil || stack.Publisher.Addr() == "" {
		t.Fatal("publisher missing")
	}
}

func TestSimulationValidation(t *testing.T) {
	stack, _ := NewStack(StackConfig{})
	defer stack.Close()
	if _, err := NewSimulation(stack, SimConfig{}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	_, sim := newSim(t, 2)
	if err := sim.SubmitJob(jobsched.JobRequest{ID: "x", Nodes: 1}, nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestSimulationEndToEndTriad(t *testing.T) {
	stack, sim := newSim(t, 2)
	w := workload.NewTriad(4, 600)
	err := sim.SubmitJob(jobsched.JobRequest{ID: "100", User: "alice", Nodes: 2}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(900); err != nil {
		t.Fatal(err)
	}
	// The job ran and ended.
	fin := sim.Sched.Finished()
	if len(fin) != 1 || fin[0].Req.ID != "100" {
		t.Fatalf("finished %+v", fin)
	}
	// Metrics landed in the primary DB, tagged with the job.
	res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "likwid_mem_dp",
		Filter:      tsdb.TagFilter{"jobid": "100"},
		GroupByTags: []string{"hostname"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("per-host series %d", len(res))
	}
	// Bandwidth during the job matches the model: 4 cores x 6 GB/s.
	agg, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "likwid_mem_dp",
		Cols:        []tsdb.AggCol{{Field: "memory_bandwidth_mbytes_s", Agg: tsdb.AggMax}},
		Filter:      tsdb.TagFilter{"jobid": "100", "hostname": "node01"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := agg[0].Rows[0].Values[0].FloatVal()
	want := 4 * 6000.0
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("bandwidth %v want ~%v", got, want)
	}
	// Per-user duplication happened.
	udb := stack.Store.DB("user_alice")
	if udb == nil || udb.PointCount() == 0 {
		t.Fatal("user database empty")
	}
	// Job start/end events stored.
	ev, err := stack.DB.SelectContext(context.Background(), tsdb.Query{Measurement: "events", Filter: tsdb.TagFilter{"jobid": "100"}})
	if err != nil || len(ev) == 0 {
		t.Fatalf("events %v %v", ev, err)
	}
	// System metrics present and quiet after job end.
	cpuRes, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "cpu",
		Cols:        []tsdb.AggCol{{Field: "percent"}},
		Filter:      tsdb.TagFilter{"hostname": "node01"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := cpuRes[0].Rows
	lastCPU := rows[len(rows)-1].Values[0].FloatVal()
	if lastCPU > 5 {
		t.Fatalf("node busy after job end: %v%%", lastCPU)
	}
}

func TestSimulationMiniMDAppMetrics(t *testing.T) {
	stack, sim := newSim(t, 1)
	mm := workload.NewMiniMD(4, 131072, 1500)
	if err := sim.SubmitJob(jobsched.JobRequest{ID: "mm1", User: "bob", Nodes: 1}, mm); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(mm.Duration() + 120); err != nil {
		t.Fatal(err)
	}
	// Application-level series tagged with the job by the router.
	res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "minimd",
		Filter:      tsdb.TagFilter{"jobid": "mm1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range res {
		n += len(s.Rows)
	}
	if n != 15 { // 1500 iterations / 100
		t.Fatalf("minimd samples %d", n)
	}
	// All four Fig. 3 fields present.
	fields := stack.DB.FieldKeys("minimd")
	for _, want := range []string{"energy", "pressure", "runtime_100iter", "temperature"} {
		found := false
		for _, f := range fields {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("field %q missing in %v", want, fields)
		}
	}
	// Start and end events from the CLI-equivalent.
	ev, err := stack.DB.SelectContext(context.Background(), tsdb.Query{Measurement: "events", Filter: tsdb.TagFilter{"jobid": "mm1", "app": "minimd"}})
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, s := range ev {
		for _, r := range s.Rows {
			texts = append(texts, r.Values[0].StringVal())
		}
	}
	joined := strings.Join(texts, "|")
	if !strings.Contains(joined, "minimd start") || !strings.Contains(joined, "minimd end") {
		t.Fatalf("events %v", texts)
	}
}

func TestSimulationIdleBreakDetected(t *testing.T) {
	stack, sim := newSim(t, 4)
	// Fig. 4: 4-node job with a 15-minute break starting at minute 30.
	w := workload.NewIdleBreak(4, 5400, 1800, 2700)
	if err := sim.SubmitJob(jobsched.JobRequest{ID: "path1", User: "carol", Nodes: 4}, w); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(6000); err != nil {
		t.Fatal(err)
	}
	job := sim.Sched.Finished()[0]
	rep, err := stack.Evaluator.Evaluate(sim.JobMeta(job))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pathological() {
		t.Fatal("idle break not detected")
	}
	// All four nodes show the low-flops violation of >= 10 minutes.
	nodes := map[string]bool{}
	for _, v := range rep.Violations {
		if v.Rule.Name == "low_flops" {
			nodes[v.Node] = true
			if v.Duration() < 10*time.Minute {
				t.Fatalf("violation too short: %v", v.Duration())
			}
		}
	}
	if len(nodes) != 4 {
		t.Fatalf("low_flops nodes %v", nodes)
	}
}

func TestSimulationQueueing(t *testing.T) {
	_, sim := newSim(t, 1)
	w1 := workload.NewDGEMM(4, 300)
	w2 := workload.NewDGEMM(4, 300)
	_ = sim.SubmitJob(jobsched.JobRequest{ID: "a", User: "u", Nodes: 1}, w1)
	_ = sim.SubmitJob(jobsched.JobRequest{ID: "b", User: "u", Nodes: 1}, w2)
	if err := sim.Run(900); err != nil {
		t.Fatal(err)
	}
	fin := sim.Sched.Finished()
	if len(fin) != 2 {
		t.Fatalf("finished %d", len(fin))
	}
	// b started after a ended.
	if fin[1].StartT < fin[0].EndT {
		t.Fatalf("overlap: %v < %v", fin[1].StartT, fin[0].EndT)
	}
}

func TestSimulationViewerIntegration(t *testing.T) {
	stack, sim := newSim(t, 2)
	w := workload.NewTriad(4, 1200)
	_ = sim.SubmitJob(jobsched.JobRequest{ID: "v1", User: "dan", Nodes: 2}, w)
	if err := sim.Run(600); err != nil { // job still running
		t.Fatal(err)
	}
	running := sim.Sched.Running()
	if len(running) != 1 {
		t.Fatalf("running %d", len(running))
	}
	meta := sim.JobMeta(running[0])
	meta.End = SimTime(sim.Now())
	d, err := stack.Agent.GenerateJobDashboard(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) < 4 {
		t.Fatalf("dashboard rows %d", len(d.Rows))
	}
	rep, err := stack.Evaluator.Evaluate(meta)
	if err != nil {
		t.Fatal(err)
	}
	table := rep.FormatTable()
	if !strings.Contains(table, "node01") || !strings.Contains(table, "node02") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestSimulationPatternClassification(t *testing.T) {
	cases := []struct {
		name  string
		model workload.Model
		nodes int
		want  analysis.Pattern
	}{
		{"triad is bandwidth bound", workload.NewTriad(4, 1200), 1, analysis.PatternBandwidthBound},
		{"imbalance detected", &workload.LoadImbalance{Cores: 4, RuntimeSecs: 1200}, 2, analysis.PatternLoadImbalance},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stack, sim, err := NewSimulatedStack(
				StackConfig{},
				SimConfig{Nodes: c.nodes, Topology: smallTopo(), CollectInterval: 30},
			)
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			_ = sim.SubmitJob(jobsched.JobRequest{ID: "j", User: "u", Nodes: c.nodes}, c.model)
			if err := sim.Run(1500); err != nil {
				t.Fatal(err)
			}
			job := sim.Sched.Finished()[0]
			rep, err := stack.Evaluator.Evaluate(sim.JobMeta(job))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Classification.Pattern != c.want {
				t.Fatalf("pattern %s want %s (path %v)",
					rep.Classification.Pattern, c.want, rep.Classification.Path)
			}
		})
	}
}

// TestStackDurableRestart: a stack built with DataDir survives its own
// restart — the router-ingested metrics written before Close (final
// checkpoint) answer queries after a fresh NewStack on the same
// directory, including the per-user duplicate databases.
func TestStackDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := StackConfig{DataDir: dir, FsyncPolicy: "batch", PerUserDBs: true}
	stack, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := []lineproto.Point{
		{Measurement: "cpu", Tags: map[string]string{"hostname": "n1"},
			Fields: map[string]lineproto.Value{"percent": lineproto.Float(42)},
			Time:   time.Unix(1600000000, 0)},
		{Measurement: "cpu", Tags: map[string]string{"hostname": "n1"},
			Fields: map[string]lineproto.Value{"percent": lineproto.Float(43)},
			Time:   time.Unix(1600000001, 0)},
	}
	if err := stack.DB.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	userDB, err := stack.Store.OpenDatabase("user_alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := userDB.WriteBatchContext(context.Background(), pts[:1]); err != nil {
		t.Fatal(err)
	}
	wantPrimary := stack.DB.PointCount()
	wantUser := userDB.PointCount()
	if wantPrimary != 2 || wantUser != 1 {
		t.Fatalf("seed counts: primary %d, user %d", wantPrimary, wantUser)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	stack2, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stack2.Close()
	if got := stack2.DB.PointCount(); got != wantPrimary {
		t.Fatalf("primary PointCount after restart = %d, want %d", got, wantPrimary)
	}
	user := stack2.Store.DB("user_alice")
	if user == nil {
		t.Fatal("per-user database not recovered")
	}
	if got := user.PointCount(); got != wantUser {
		t.Fatalf("user PointCount after restart = %d, want %d", got, wantUser)
	}
	res, err := stack2.DB.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu"})
	if err != nil || len(res) == 0 {
		t.Fatalf("Select after restart: %v, %v", res, err)
	}
}

func TestStackBadFsyncPolicy(t *testing.T) {
	if _, err := NewStack(StackConfig{DataDir: t.TempDir(), FsyncPolicy: "bogus"}); err == nil {
		t.Fatal("NewStack accepted a bogus fsync policy")
	}
}

// TestStackUserDatabaseOpenFailureIsCounted: on a durable stack whose
// per-user database cannot be opened, a job batch's duplicate must be
// refused and counted as dropped — not acknowledged into a throwaway
// in-memory database that is gone when the write returns. Every point the
// router reports forwarded is in the primary database.
func TestStackUserDatabaseOpenFailureIsCounted(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the database directory would go.
	if err := os.WriteFile(filepath.Join(dir, "user_x"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	stack, err := NewStack(StackConfig{DataDir: dir, FsyncPolicy: "off", PerUserDBs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if err := stack.Router.JobStart(router.JobSignal{JobID: "7", User: "x", Nodes: []string{"n1"}}); err != nil {
		t.Fatal(err)
	}
	const n = 10
	pts := make([]lineproto.Point, n)
	for i := range pts {
		pts[i] = lineproto.Point{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": "n1"},
			Fields:      map[string]lineproto.Value{"percent": lineproto.Float(float64(i))},
			Time:        time.Unix(1600000000+int64(i), 0),
		}
	}
	if err := stack.Router.IngestContext(context.Background(), pts); err != nil {
		t.Fatalf("a broken user database must not fail ingest into the primary: %v", err)
	}
	_, forwarded, dropped := stack.Router.Stats()
	if dropped != n {
		t.Errorf("router dropped = %d, want %d: the duplicate batch was acknowledged into a database nobody holds", dropped, n)
	}
	res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu"})
	if err != nil || len(res) != 1 || len(res[0].Rows) != n {
		t.Fatalf("primary holds %v (err %v), want %d cpu rows", res, err, n)
	}
	if got := int64(stack.DB.PointCount()); got != forwarded {
		t.Errorf("primary holds %d points, router forwarded %d", got, forwarded)
	}
	if db := stack.Store.DB("user_x"); db != nil {
		t.Errorf("store serves a user_x database (%d points) that has no directory", db.PointCount())
	}
}
