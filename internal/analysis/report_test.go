package analysis

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// newEvaluator returns an empty database "lms" in a fresh store and an
// evaluator querying it in-process.
func newEvaluator() (*tsdb.DB, *Evaluator) {
	st := tsdb.NewStore()
	return st.CreateDatabase("lms"), &Evaluator{Querier: tsdb.LocalQuerier{Store: st}, Database: "lms"}
}

// seedJobData writes a 4-node job's monitoring data covering the Fig. 2 and
// Fig. 4 scenarios: nodes h1..h3 compute steadily, h4 has an 15-minute
// idle break starting at minute 30.
func seedJobData(t *testing.T) (*Evaluator, JobMeta) {
	t.Helper()
	db, ev := newEvaluator()
	nodes := []string{"h1", "h2", "h3", "h4"}
	start := time.Unix(10000, 0).UTC()
	for i := 0; i < 120; i++ { // 2 hours, one sample per minute
		ts := start.Add(time.Duration(i) * time.Minute)
		for ni, node := range nodes {
			flops := 2000.0 + float64(ni)*10 // distinguishable per node
			bw := 8000.0 + float64(ni)*50
			cpu := 95.0
			if node == "h4" && i >= 30 && i < 45 {
				flops, bw, cpu = 2.0, 50.0, 1.0
			}
			pts := []lineproto.Point{
				{
					Measurement: "likwid_mem_dp",
					Tags:        map[string]string{"hostname": node, "jobid": "42"},
					Fields: map[string]lineproto.Value{
						"dp_mflop_s":                lineproto.Float(flops),
						"memory_bandwidth_mbytes_s": lineproto.Float(bw),
						"ipc":                       lineproto.Float(1.2),
					},
					Time: ts,
				},
				{
					Measurement: "cpu",
					Tags:        map[string]string{"hostname": node, "jobid": "42"},
					Fields:      map[string]lineproto.Value{"percent": lineproto.Float(cpu)},
					Time:        ts,
				},
				{
					Measurement: "memory",
					Tags:        map[string]string{"hostname": node},
					Fields:      map[string]lineproto.Value{"used_kb": lineproto.Int(8 * 1024 * 1024), "used_percent": lineproto.Float(30)},
					Time:        ts,
				},
				{
					Measurement: "network",
					Tags:        map[string]string{"hostname": node},
					Fields:      map[string]lineproto.Value{"rx_bytes_per_s": lineproto.Float(2e6)},
					Time:        ts,
				},
				{
					Measurement: "disk",
					Tags:        map[string]string{"hostname": node},
					Fields:      map[string]lineproto.Value{"read_bytes_per_s": lineproto.Float(1e6)},
					Time:        ts,
				},
			}
			if err := db.WriteBatchContext(context.Background(), pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ev, JobMeta{
		ID: "42", User: "alice", Nodes: nodes,
		Start: start, End: start.Add(2 * time.Hour),
	}
}

func TestEvaluateJobReport(t *testing.T) {
	ev, job := seedJobData(t)
	ev.PeakMemBWMBs, ev.PeakDPMFlops = 100000, 500000
	rep, err := ev.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(DefaultMetricSpecs()) {
		t.Fatalf("rows %d", len(rep.Rows))
	}
	// DP FP rate row: h1 mean 2000, h4 dragged down by the break.
	row, ok := rep.rowByField("likwid_mem_dp", "dp_mflop_s")
	if !ok {
		t.Fatal("missing flops row")
	}
	if math.Abs(row.PerNode["h1"]-2000) > 1 {
		t.Fatalf("h1 %v", row.PerNode["h1"])
	}
	if row.PerNode["h4"] >= row.PerNode["h3"] {
		t.Fatalf("h4 should trail: %v vs %v", row.PerNode["h4"], row.PerNode["h3"])
	}
	if row.Stats.Min != row.PerNode["h4"] || row.Stats.Max != row.PerNode["h3"] {
		t.Fatalf("stats %+v", row.Stats)
	}
	// Memory row scaled to GB.
	memRow, _ := rep.rowByField("memory", "used_kb")
	if math.Abs(memRow.Stats.Mean-8) > 0.01 {
		t.Fatalf("memory GB %v", memRow.Stats.Mean)
	}
}

func TestEvaluateDetectsFig4Break(t *testing.T) {
	ev, job := seedJobData(t)
	rep, err := ev.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pathological() {
		t.Fatal("break not detected")
	}
	// Both HPM rules fire on h4 only.
	byRule := map[string][]string{}
	for _, v := range rep.Violations {
		byRule[v.Rule.Name] = append(byRule[v.Rule.Name], v.Node)
	}
	for _, rule := range []string{"low_flops", "low_membw"} {
		nodes := byRule[rule]
		if len(nodes) != 1 || nodes[0] != "h4" {
			t.Fatalf("%s violations on %v", rule, nodes)
		}
	}
	for _, v := range rep.Violations {
		if v.Duration() < 10*time.Minute {
			t.Fatalf("violation shorter than timeout: %v", v.Duration())
		}
	}
}

func TestEvaluateHealthyJobClean(t *testing.T) {
	db, ev := newEvaluator()
	start := time.Unix(0, 0).UTC()
	for i := 0; i < 60; i++ {
		_ = db.WriteBatchContext(context.Background(), []lineproto.Point{{
			Measurement: "likwid_mem_dp",
			Tags:        map[string]string{"hostname": "h1"},
			Fields: map[string]lineproto.Value{
				"dp_mflop_s":                lineproto.Float(50000),
				"memory_bandwidth_mbytes_s": lineproto.Float(40000),
				"ipc":                       lineproto.Float(1.8),
			},
			Time: start.Add(time.Duration(i) * time.Minute),
		}})
		_ = db.WriteBatchContext(context.Background(), []lineproto.Point{{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": "h1"},
			Fields:      map[string]lineproto.Value{"percent": lineproto.Float(98)},
			Time:        start.Add(time.Duration(i) * time.Minute),
		}})
	}
	ev.PeakMemBWMBs, ev.PeakDPMFlops = 50000, 400000
	rep, err := ev.Evaluate(JobMeta{ID: "1", Nodes: []string{"h1"}, Start: start, End: start.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pathological() {
		t.Fatalf("healthy job flagged: %+v", rep.Violations)
	}
	// 40000/50000 = 80% of peak bandwidth -> bandwidth saturated.
	if rep.Classification.Pattern != PatternBandwidthBound {
		t.Fatalf("pattern %s (path %v)", rep.Classification.Pattern, rep.Classification.Path)
	}
}

func TestEvaluateIdleJobClassifiedIdle(t *testing.T) {
	db, ev := newEvaluator()
	start := time.Unix(0, 0).UTC()
	for i := 0; i < 60; i++ {
		_ = db.WriteBatchContext(context.Background(), []lineproto.Point{{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": "h1"},
			Fields:      map[string]lineproto.Value{"percent": lineproto.Float(0.5)},
			Time:        start.Add(time.Duration(i) * time.Minute),
		}})
	}
	rep, err := ev.Evaluate(JobMeta{ID: "1", Nodes: []string{"h1"}, Start: start, End: start.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classification.Pattern != PatternIdle {
		t.Fatalf("pattern %s", rep.Classification.Pattern)
	}
	// idle_cpu rule fires too.
	found := false
	for _, v := range rep.Violations {
		if v.Rule.Name == "idle_cpu" {
			found = true
		}
	}
	if !found {
		t.Fatalf("idle rule silent: %+v", rep.Violations)
	}
}

func TestEvaluateRunningJobUsesNow(t *testing.T) {
	ev, job := seedJobData(t)
	job.End = time.Time{} // running
	fixed := job.Start.Add(20 * time.Minute)
	ev.Now = func() time.Time { return fixed }
	rep, err := ev.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	// Online view before the break: no violations yet.
	if rep.Pathological() {
		t.Fatalf("early online view flagged: %+v", rep.Violations)
	}
}

func TestEvaluateValidation(t *testing.T) {
	ev := &Evaluator{}
	if _, err := ev.Evaluate(JobMeta{ID: "x", Nodes: []string{"h"}}); err == nil {
		t.Error("nil querier accepted")
	}
	_, empty := newEvaluator()
	ev.Querier, ev.Database = empty.Querier, empty.Database
	if _, err := ev.Evaluate(JobMeta{ID: "x"}); err == nil {
		t.Error("no nodes accepted")
	}
	// Empty database: all rows NaN, no violations, still a report.
	rep, err := ev.Evaluate(JobMeta{ID: "x", Nodes: []string{"h1"}, Start: time.Unix(0, 0), End: time.Unix(100, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if !math.IsNaN(row.PerNode["h1"]) {
			t.Fatalf("expected NaN, got %v", row.PerNode["h1"])
		}
		if row.Stats.N != 0 {
			t.Fatalf("stats over missing data: %+v", row.Stats)
		}
	}
}

func TestFormatTableFig2Shape(t *testing.T) {
	ev, job := seedJobData(t)
	rep, _ := ev.Evaluate(job)
	table := rep.FormatTable()
	// Header names the job and the four rightmost columns are the nodes.
	if !strings.Contains(table, "Job 42 (user alice) on 4 nodes") {
		t.Fatalf("header missing:\n%s", table)
	}
	lines := strings.Split(table, "\n")
	if len(lines) < 10 {
		t.Fatalf("table too short:\n%s", table)
	}
	headerLine := lines[1]
	for _, col := range []string{"metric", "min", "median", "max", "h1", "h2", "h3", "h4"} {
		if !strings.Contains(headerLine, col) {
			t.Fatalf("header %q missing %q", headerLine, col)
		}
	}
	for _, label := range []string{"CPU load", "DP FP rate", "Memory bandwidth", "Allocated memory", "Network I/O", "File I/O"} {
		if !strings.Contains(table, label) {
			t.Fatalf("row %q missing:\n%s", label, table)
		}
	}
	if !strings.Contains(table, "Pathological behaviour detected") {
		t.Fatalf("violations section missing:\n%s", table)
	}
	if !strings.Contains(table, "Performance pattern:") {
		t.Fatalf("pattern line missing:\n%s", table)
	}
}

func TestFormatTableHealthy(t *testing.T) {
	db, ev := newEvaluator()
	start := time.Unix(0, 0).UTC()
	for i := 0; i < 30; i++ {
		_ = db.WriteBatchContext(context.Background(), []lineproto.Point{{
			Measurement: "cpu", Tags: map[string]string{"hostname": "h1"},
			Fields: map[string]lineproto.Value{"percent": lineproto.Float(90)},
			Time:   start.Add(time.Duration(i) * time.Minute),
		}})
	}
	rep, _ := ev.Evaluate(JobMeta{ID: "ok", Nodes: []string{"h1"}, Start: start, End: start.Add(time.Hour)})
	table := rep.FormatTable()
	if !strings.Contains(table, "No pathological behaviour detected") {
		t.Fatalf("healthy summary missing:\n%s", table)
	}
	// Missing metrics render as "-".
	if !strings.Contains(table, "-") {
		t.Fatalf("missing data marker absent:\n%s", table)
	}
}
