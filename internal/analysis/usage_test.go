package analysis

import (
	"math"
	"strings"
	"testing"
	"time"
)

func mkReport(id, user string, nodes int, hours float64, pattern Pattern, violations int) *Report {
	start := time.Unix(0, 0).UTC()
	meta := JobMeta{ID: id, User: user, Start: start, End: start.Add(time.Duration(hours * float64(time.Hour)))}
	for i := 0; i < nodes; i++ {
		meta.Nodes = append(meta.Nodes, "h"+string(rune('1'+i)))
	}
	rep := &Report{Job: meta, Classification: Classification{Pattern: pattern}}
	rep.Rows = []MetricRow{
		{
			Spec:    MetricSpec{Measurement: "cpu", Field: "percent"},
			PerNode: map[string]float64{"h1": 90},
			Stats:   ComputeStats([]float64{90}),
		},
		{
			Spec:    MetricSpec{Measurement: "likwid_mem_dp", Field: "dp_mflop_s"},
			PerNode: map[string]float64{"h1": 5000},
			Stats:   ComputeStats([]float64{5000}),
		},
	}
	for i := 0; i < violations; i++ {
		rep.Violations = append(rep.Violations, NodeViolation{
			Node: "h1",
			Violation: Violation{
				Rule:  DefaultRules()[0],
				Start: start,
				End:   start.Add(30 * time.Minute),
			},
		})
	}
	return rep
}

func TestRecordFromReport(t *testing.T) {
	rep := mkReport("1", "alice", 4, 2, PatternBandwidthBound, 2)
	rec := RecordFromReport(rep)
	if rec.JobID != "1" || rec.User != "alice" || rec.Nodes != 4 {
		t.Fatalf("%+v", rec)
	}
	if rec.Walltime != 2*time.Hour || rec.NodeHours != 8 {
		t.Fatalf("walltime %v nodehours %v", rec.Walltime, rec.NodeHours)
	}
	if !rec.Pathological || rec.Pattern != PatternBandwidthBound {
		t.Fatalf("%+v", rec)
	}
	if rec.WastedNodeHours != 1 { // 2 violations x 30 min
		t.Fatalf("wasted %v", rec.WastedNodeHours)
	}
	if math.Abs(rec.MeanCPUUtil-0.9) > 1e-9 || rec.MeanDPMFlops != 5000 {
		t.Fatalf("%+v", rec)
	}
}

func TestRecordRunningJobZeroWalltime(t *testing.T) {
	rep := mkReport("1", "a", 1, 1, PatternIdle, 0)
	rep.Job.End = rep.Job.Start.Add(-time.Hour) // inverted (running/missing)
	rec := RecordFromReport(rep)
	if rec.Walltime != 0 || rec.NodeHours != 0 {
		t.Fatalf("%+v", rec)
	}
}

func seedUsage() *UsageStats {
	var s UsageStats
	s.Add(RecordFromReport(mkReport("1", "alice", 4, 2, PatternBandwidthBound, 0)))
	s.Add(RecordFromReport(mkReport("2", "alice", 2, 1, PatternBandwidthBound, 1)))
	s.Add(RecordFromReport(mkReport("3", "bob", 8, 4, PatternComputeBound, 0)))
	s.Add(RecordFromReport(mkReport("4", "carol", 1, 10, PatternIdle, 3)))
	return &s
}

func TestPerUserAggregation(t *testing.T) {
	s := seedUsage()
	users := s.PerUser()
	if len(users) != 3 {
		t.Fatalf("users %d", len(users))
	}
	// Sorted by node-hours: bob 32, carol 10, alice 10 -> tie broken by name.
	if users[0].User != "bob" || users[0].NodeHours != 32 {
		t.Fatalf("%+v", users[0])
	}
	if users[1].User != "alice" || users[2].User != "carol" {
		t.Fatalf("%+v %+v", users[1], users[2])
	}
	alice := users[1]
	if alice.Jobs != 2 || alice.PathologicalJobs != 1 || alice.Patterns[PatternBandwidthBound] != 2 {
		t.Fatalf("%+v", alice)
	}
	if math.Abs(alice.MeanCPUUtil()-0.9) > 1e-9 {
		t.Fatalf("cpu util %v", alice.MeanCPUUtil())
	}
}

func TestClusterSummary(t *testing.T) {
	s := seedUsage()
	sum := s.Summary()
	if sum.Jobs != 4 || sum.Users != 3 {
		t.Fatalf("%+v", sum)
	}
	if sum.NodeHours != 8+2+32+10 {
		t.Fatalf("node hours %v", sum.NodeHours)
	}
	if sum.PathologicalJobs != 2 {
		t.Fatalf("patho %d", sum.PathologicalJobs)
	}
	if sum.WastedNodeHours != 0.5+1.5 {
		t.Fatalf("wasted %v", sum.WastedNodeHours)
	}
	if math.Abs(sum.BandwidthBoundShare-0.5) > 1e-9 {
		t.Fatalf("bw share %v", sum.BandwidthBoundShare)
	}
	if math.Abs(sum.ComputeBoundShare-0.25) > 1e-9 {
		t.Fatalf("compute share %v", sum.ComputeBoundShare)
	}
}

func TestEmptyUsage(t *testing.T) {
	var s UsageStats
	if s.Len() != 0 {
		t.Fatal("len")
	}
	sum := s.Summary()
	if sum.Jobs != 0 || sum.BandwidthBoundShare != 0 {
		t.Fatalf("%+v", sum)
	}
	if got := s.FormatReport(); !strings.Contains(got, "0 jobs") {
		t.Fatalf("%q", got)
	}
	if len(s.PerUser()) != 0 {
		t.Fatal("per user")
	}
}

func TestFormatUsageReport(t *testing.T) {
	s := seedUsage()
	out := s.FormatReport()
	for _, want := range []string{
		"4 jobs by 3 users",
		"Pathological jobs: 2 (50%)",
		"Procurement signal: 50% bandwidth-bound vs 25% compute-bound",
		"alice", "bob", "carol",
		"bandwidth_saturation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDominantPatternDeterministic(t *testing.T) {
	p := map[Pattern]int{PatternIdle: 2, PatternComputeBound: 2}
	// Tie: lexicographically first wins, deterministically.
	if got := dominantPattern(p); got != PatternComputeBound {
		t.Fatalf("%v", got)
	}
	if got := dominantPattern(nil); got != "-" {
		t.Fatalf("%v", got)
	}
}
