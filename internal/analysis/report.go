package analysis

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/tsdb"
)

// MetricSpec describes one row of the job evaluation table: where the data
// lives in the database and how to present it.
type MetricSpec struct {
	Label       string
	Measurement string
	Field       string
	Unit        string
	Scale       float64 // presentation multiplier (default 1)
}

// DefaultMetricSpecs lists the elementary resource-utilization metrics of
// Sect. V: CPU load, FP rate, allocated memory, memory bandwidth, network
// I/O and file I/O.
func DefaultMetricSpecs() []MetricSpec {
	return []MetricSpec{
		{Label: "CPU load", Measurement: "cpu", Field: "percent", Unit: "%"},
		{Label: "IPC", Measurement: "likwid_mem_dp", Field: "ipc", Unit: ""},
		{Label: "DP FP rate", Measurement: "likwid_mem_dp", Field: "dp_mflop_s", Unit: "MFLOP/s"},
		{Label: "Memory bandwidth", Measurement: "likwid_mem_dp", Field: "memory_bandwidth_mbytes_s", Unit: "MB/s"},
		{Label: "Allocated memory", Measurement: "memory", Field: "used_kb", Unit: "GB", Scale: 1.0 / (1024 * 1024)},
		{Label: "Network I/O", Measurement: "network", Field: "rx_bytes_per_s", Unit: "MB/s", Scale: 1e-6},
		{Label: "File I/O", Measurement: "disk", Field: "read_bytes_per_s", Unit: "MB/s", Scale: 1e-6},
	}
}

// JobMeta identifies the job under evaluation.
type JobMeta struct {
	ID    string
	User  string
	Nodes []string
	Start time.Time
	End   time.Time // zero = now (running job, online evaluation)
}

// MetricRow is one evaluated metric: the per-node time averages and their
// statistics across nodes (the min/median/max plus per-node columns of
// Fig. 2).
type MetricRow struct {
	Spec    MetricSpec
	PerNode map[string]float64 // NaN = no data for that node
	Stats   Stats
}

// NodeViolation attributes a rule violation to a node.
type NodeViolation struct {
	Node string
	Violation
}

// Report is the full job evaluation.
type Report struct {
	Job            JobMeta
	Rows           []MetricRow
	Violations     []NodeViolation
	Classification Classification
}

// Pathological reports whether any rule fired.
func (r *Report) Pathological() bool { return len(r.Violations) > 0 }

// Evaluator computes job reports through the tsdb query API. It implements
// the online analysis performed when a dashboard is loaded (Fig. 2 shows
// "data from the start of the job until the loading of the Grafana
// dashboard") as well as the offline in-depth variant over finished jobs.
//
// The evaluator depends only on tsdb.Querier: wired with a LocalQuerier it
// runs in-process next to the store, wired with a tsdb.Client it evaluates
// against a remote lms-db — the separate-service topology of the paper.
// Its metric timelines are built as pre-parsed statements, so the local
// path never round-trips through InfluxQL text.
type Evaluator struct {
	Querier  tsdb.Querier
	Database string // database the job's metrics live in

	// Peaks feed the pattern decision tree; zero disables the respective
	// saturation checks.
	PeakMemBWMBs float64
	PeakDPMFlops float64
	// Now overrides the clock for running jobs (tests).
	Now func() time.Time
}

// series fetches one node's metric timeline within the job window through
// the query API. Timestamps are requested as nanosecond epochs, so both the
// local and the remote querier return them without a string formatting
// round-trip. A missing measurement is no data (nil, nil); a failed query —
// unreachable remote database, cancelled context — is an error, so a
// broken connection cannot masquerade as a clean job.
func (e *Evaluator) series(ctx context.Context, node, measurement, field string, start, end time.Time) ([]TimedValue, error) {
	st := tsdb.SelectStatement(tsdb.Query{
		Measurement: measurement,
		Start:       start,
		End:         end,
		Filter:      tsdb.TagFilter{"hostname": node},
	}, tsdb.AggCol{Field: field})
	resp, err := e.Querier.Query(ctx, tsdb.Request{
		Database:   e.Database,
		Statements: []tsdb.Statement{st},
		Epoch:      "ns",
	})
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s.%s on %s: %w", measurement, field, node, err)
	}
	var out []TimedValue
	for _, res := range resp.Results {
		for _, s := range res.Series {
			for _, row := range s.Values {
				if len(row) < 2 || row[1] == nil {
					continue
				}
				v, ok := tsdb.FloatValue(row[1])
				if !ok {
					continue
				}
				t, err := tsdb.ParseTimestamp(row[0])
				if err != nil {
					continue
				}
				out = append(out, TimedValue{T: t, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out, nil
}

func mean(series []TimedValue) float64 {
	if len(series) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, s := range series {
		sum += s.V
	}
	return sum / float64(len(series))
}

// Evaluate builds the report for a job (context-free convenience form of
// EvaluateContext).
func (e *Evaluator) Evaluate(job JobMeta) (*Report, error) {
	return e.EvaluateContext(context.Background(), job)
}

// EvaluateContext builds the report for a job. Every metric and rule
// timeline is fetched through the evaluator's Querier under ctx, so a
// cancelled dashboard request stops the evaluation mid-way.
func (e *Evaluator) EvaluateContext(ctx context.Context, job JobMeta) (*Report, error) {
	if e.Querier == nil {
		return nil, fmt.Errorf("analysis: evaluator has no querier")
	}
	if len(job.Nodes) == 0 {
		return nil, fmt.Errorf("analysis: job %s has no nodes", job.ID)
	}
	end := job.End
	if end.IsZero() {
		if e.Now != nil {
			end = e.Now()
		} else {
			end = time.Now()
		}
	}
	rep := &Report{Job: job}

	// Metric rows.
	for _, spec := range DefaultMetricSpecs() {
		scale := spec.Scale
		if scale == 0 {
			scale = 1
		}
		row := MetricRow{Spec: spec, PerNode: make(map[string]float64, len(job.Nodes))}
		var present []float64
		for _, node := range job.Nodes {
			s, err := e.series(ctx, node, spec.Measurement, spec.Field, job.Start, end)
			if err != nil {
				return nil, err
			}
			v := mean(s) * scale
			row.PerNode[node] = v
			if !math.IsNaN(v) {
				present = append(present, v)
			}
		}
		row.Stats = ComputeStats(present)
		rep.Rows = append(rep.Rows, row)
	}

	// Rule violations per node.
	for _, rule := range DefaultRules() {
		for _, node := range job.Nodes {
			series, err := e.series(ctx, node, rule.Measurement, rule.Field, job.Start, end)
			if err != nil {
				return nil, err
			}
			for _, v := range Detect(rule, series) {
				rep.Violations = append(rep.Violations, NodeViolation{Node: node, Violation: v})
			}
		}
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		if !rep.Violations[i].Start.Equal(rep.Violations[j].Start) {
			return rep.Violations[i].Start.Before(rep.Violations[j].Start)
		}
		return rep.Violations[i].Node < rep.Violations[j].Node
	})

	// Pattern classification from the aggregated rows.
	in, err := e.patternInput(ctx, rep, job, end)
	if err != nil {
		return nil, err
	}
	rep.Classification = Classify(in)
	return rep, nil
}

// rowByField finds an evaluated row.
func (r *Report) rowByField(measurement, field string) (MetricRow, bool) {
	for _, row := range r.Rows {
		if row.Spec.Measurement == measurement && row.Spec.Field == field {
			return row, true
		}
	}
	return MetricRow{}, false
}

func (e *Evaluator) patternInput(ctx context.Context, rep *Report, job JobMeta, end time.Time) (PatternInput, error) {
	in := PatternInput{PeakMemBWMBs: e.PeakMemBWMBs, PeakDPMFlops: e.PeakDPMFlops}
	if row, ok := rep.rowByField("cpu", "percent"); ok {
		in.CPUUtil = row.Stats.Mean / 100
	}
	if row, ok := rep.rowByField("likwid_mem_dp", "ipc"); ok {
		in.IPC = row.Stats.Mean
	}
	if row, ok := rep.rowByField("likwid_mem_dp", "dp_mflop_s"); ok {
		in.DPMFlops = row.Stats.Mean
		var perNode []float64
		for _, v := range row.PerNode {
			if !math.IsNaN(v) {
				perNode = append(perNode, v)
			}
		}
		in.Imbalance = ImbalanceFrac(perNode)
	}
	if row, ok := rep.rowByField("likwid_mem_dp", "memory_bandwidth_mbytes_s"); ok {
		in.MemBWMBs = row.Stats.Mean
	}
	// Branch data comes from the BRANCH group when collected.
	for _, node := range job.Nodes {
		s, err := e.series(ctx, node, "likwid_branch", "branch_misprediction_ratio", job.Start, end)
		if err != nil {
			return PatternInput{}, err
		}
		if len(s) > 0 {
			in.BranchMissRatio = math.Max(in.BranchMissRatio, mean(s))
		}
	}
	return in, nil
}

// FormatTable renders the Fig. 2 evaluation header: one row per metric with
// min/median/max across nodes followed by the per-node columns.
func (r *Report) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Job %s", r.Job.ID)
	if r.Job.User != "" {
		fmt.Fprintf(&b, " (user %s)", r.Job.User)
	}
	fmt.Fprintf(&b, " on %d nodes\n", len(r.Job.Nodes))

	nodes := append([]string(nil), r.Job.Nodes...)
	sort.Strings(nodes)
	header := []string{"metric", "min", "median", "max"}
	header = append(header, nodes...)
	widths := make([]int, len(header))
	rows := [][]string{header}
	fmtv := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.4g", v)
	}
	for _, row := range r.Rows {
		label := row.Spec.Label
		if row.Spec.Unit != "" {
			label += " [" + row.Spec.Unit + "]"
		}
		cells := []string{label, fmtv(row.Stats.Min), fmtv(row.Stats.Median), fmtv(row.Stats.Max)}
		for _, n := range nodes {
			cells = append(cells, fmtv(row.PerNode[n]))
		}
		rows = append(rows, cells)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}

	if len(r.Violations) > 0 {
		b.WriteString("\nPathological behaviour detected:\n")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  [%s] %s\n", v.Node, v.Violation.String())
		}
	} else {
		b.WriteString("\nNo pathological behaviour detected.\n")
	}
	fmt.Fprintf(&b, "Performance pattern: %s — %s\n", r.Classification.Pattern, r.Classification.Advice)
	return b.String()
}
