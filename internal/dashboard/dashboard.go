// Package dashboard implements the LMS dashboard agent and web viewer
// (paper Sect. III-D).
//
// In the original stack the visualization front-end is Grafana, but
// "Grafana is not configured manually": a Grafana Agent generates the
// dashboards out of templates, based on available databases and the metrics
// in them. Dashboard, row and panel templates are JSON documents with
// substitution variables; the agent selects panel templates by the
// measurements present for the hosts participating in a job, combines them
// into a full dashboard, and adjusts settings (time range, job tag filters)
// for the current job. As a header, analysis results of the job are
// presented "to see badly behaving jobs on the initial view" (Fig. 2).
//
// This reproduction keeps the agent logic intact — template selection,
// JSON assembly, per-job adjustment — and replaces the Grafana renderer
// with a small built-in web viewer (viewer.go) that draws the same panels
// as unicode sparkline graphs. A panel template here is a typed value (a
// title and a unit per measurement), not JSON text: the agent fills in a
// Panel directly, and every panel and annotation query is a tsdb statement
// printed by Statement.Text, the one escaping printer, so odd measurement,
// field and job names cannot break the document or the query.
package dashboard

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/tsdb"
)

// Dashboard is the generated document, a compatible subset of Grafana's
// dashboard JSON model.
type Dashboard struct {
	Title       string       `json:"title"`
	UID         string       `json:"uid"`
	Tags        []string     `json:"tags,omitempty"`
	Time        TimeRange    `json:"time"`
	Annotations []Annotation `json:"annotations,omitempty"`
	Rows        []Row        `json:"rows"`
}

// TimeRange is the dashboard's visible window.
type TimeRange struct {
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
}

// Annotation marks an event overlay (job start/end, user events).
type Annotation struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

// Row groups panels.
type Row struct {
	Title  string  `json:"title"`
	Panels []Panel `json:"panels"`
}

// Panel is one visualization.
type Panel struct {
	ID      int      `json:"id"`
	Title   string   `json:"title"`
	Type    string   `json:"type"` // "graph", "table", "text"
	Span    int      `json:"span"`
	Unit    string   `json:"unit,omitempty"`
	Targets []Target `json:"targets,omitempty"`
	Content string   `json:"content,omitempty"` // for text panels
}

// Target is one data query of a panel.
type Target struct {
	Query  string `json:"query"`
	Legend string `json:"legend,omitempty"`
}

// Agent generates dashboards from templates and database content. It
// discovers measurements, fields and participating hosts through the tsdb
// query API (SHOW statements over a Querier), so it generates the same
// dashboards whether the database is in-process or a remote lms-db.
type Agent struct {
	Querier tsdb.Querier
	// Database is the database the agent inspects.
	Database string
	// Evaluator produces the analysis header; nil skips the header.
	Evaluator *analysis.Evaluator
}

// measurementsForJob discovers which measurements carry data for the job's
// hosts: the template-selection input ("Based on the hostnames
// participating in the job, the agent selects the templates").
func (a *Agent) measurementsForJob(ctx context.Context, job analysis.JobMeta) ([]string, error) {
	hostSet := map[string]bool{}
	for _, h := range job.Nodes {
		hostSet[h] = true
	}
	all, err := tsdb.QueryStrings(ctx, a.Querier, a.Database, tsdb.ShowMeasurementsStatement(), 0)
	if err != nil {
		return nil, fmt.Errorf("dashboard: list measurements: %w", err)
	}
	// One batched request for every measurement's hostname values: against
	// a remote lms-db this is a single round trip instead of one per
	// measurement.
	var candidates []string
	var stmts []tsdb.Statement
	for _, meas := range all {
		if meas == "events" { // annotations, not a panel
			continue
		}
		candidates = append(candidates, meas)
		stmts = append(stmts, tsdb.ShowTagValuesStatement(meas, "hostname"))
	}
	perMeas, err := tsdb.QueryStringsBatch(ctx, a.Querier, a.Database, stmts, 1)
	if err != nil {
		return nil, fmt.Errorf("dashboard: hosts per measurement: %w", err)
	}
	var out []string
	for i, meas := range candidates {
		for _, host := range perMeas[i] {
			if hostSet[host] {
				out = append(out, meas)
				break
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// panelStyle is what sets a builtin template's panels apart: the title
// around the field name, and the unit.
type panelStyle struct{ prefix, suffix, unit string }

// panelStyles are the builtin panel templates, selected by measurement. A
// measurement without one — an application's own series from libusermetric
// (Sect. IV) among them — gets the generic "<measurement> <field>" panel.
var panelStyles = map[string]panelStyle{
	"cpu":             {prefix: "CPU", suffix: " [%]", unit: "percent"},
	"likwid_mem_dp":   {prefix: "LIKWID"},
	"likwid_flops_dp": {prefix: "LIKWID"},
	"memory":          {prefix: "Memory"},
}

// jobPanel is one field's graph panel of a job dashboard: the per-host mean
// of the field over the job window, in minute buckets. Its query is printed
// from the AST, so any measurement, field or job id the store can hold
// comes out escaped.
func jobPanel(id int, meas, field, jobID string, start, end time.Time) Panel {
	style, ok := panelStyles[meas]
	if !ok {
		style.prefix = meas
	}
	st := tsdb.SelectStatement(tsdb.Query{
		Measurement: meas,
		Start:       start,
		End:         end,
		Filter:      tsdb.TagFilter{"jobid": jobID},
		GroupByTags: []string{"hostname"},
		Every:       time.Minute,
	}, tsdb.AggCol{Field: field, Agg: tsdb.AggMean})
	return Panel{
		ID:      id,
		Title:   style.prefix + " " + field + style.suffix,
		Type:    "graph",
		Span:    6,
		Unit:    style.unit,
		Targets: []Target{{Query: st.Text(), Legend: "$tag_hostname"}},
	}
}

// jobEvents is the annotation that overlays a job's events (job start and
// end, user events) on its panels.
func jobEvents(jobID string) Annotation {
	st := tsdb.SelectStatement(tsdb.Query{
		Measurement: "events",
		Filter:      tsdb.TagFilter{"jobid": jobID},
	}, tsdb.AggCol{Field: "text"})
	return Annotation{Name: "job events", Query: st.Text()}
}

// GenerateJobDashboard builds the per-job dashboard (context-free
// convenience form of GenerateJobDashboardContext).
func (a *Agent) GenerateJobDashboard(job analysis.JobMeta) (*Dashboard, error) {
	return a.GenerateJobDashboardContext(context.Background(), job)
}

// GenerateJobDashboardContext builds the per-job dashboard: analysis
// header, one row per measurement with per-field graph panels, and the
// job's event annotations. Metadata discovery and the evaluation header
// run through the agent's Querier under ctx.
func (a *Agent) GenerateJobDashboardContext(ctx context.Context, job analysis.JobMeta) (*Dashboard, error) {
	if a.Querier == nil {
		return nil, fmt.Errorf("dashboard: agent has no querier")
	}
	end := job.End
	if end.IsZero() {
		end = time.Now()
	}
	d := &Dashboard{
		Title:       fmt.Sprintf("Job %s", job.ID),
		UID:         "job-" + job.ID,
		Tags:        []string{"lms", "job"},
		Time:        TimeRange{From: job.Start, To: end},
		Annotations: []Annotation{jobEvents(job.ID)},
	}

	// Header row: online job evaluation (Fig. 2).
	if a.Evaluator != nil {
		rep, err := a.Evaluator.EvaluateContext(ctx, job)
		if err != nil {
			return nil, err
		}
		d.Rows = append(d.Rows, Row{
			Title: "Job evaluation",
			Panels: []Panel{{
				ID:      1,
				Title:   "Online job evaluation",
				Type:    "text",
				Span:    12,
				Content: rep.FormatTable(),
			}},
		})
	}

	id := 100
	measurements, err := a.measurementsForJob(ctx, job)
	if err != nil {
		return nil, err
	}
	// Field keys of all selected measurements in one batched request.
	fieldStmts := make([]tsdb.Statement, len(measurements))
	for i, meas := range measurements {
		fieldStmts[i] = tsdb.ShowFieldKeysStatement(meas)
	}
	fieldsPerMeas, err := tsdb.QueryStringsBatch(ctx, a.Querier, a.Database, fieldStmts, 0)
	if err != nil {
		return nil, fmt.Errorf("dashboard: field keys: %w", err)
	}
	for mi, meas := range measurements {
		row := Row{Title: meas}
		for _, field := range fieldsPerMeas[mi] {
			row.Panels = append(row.Panels, jobPanel(id, meas, field, job.ID, job.Start, end))
			id++
		}
		if len(row.Panels) > 0 {
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// MarshalIndent renders the dashboard as Grafana-style JSON.
func (d *Dashboard) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// Validate checks structural invariants of a generated dashboard: unique
// panel ids, non-empty queries on graph panels, sane time range.
func (d *Dashboard) Validate() error {
	if d.Title == "" {
		return fmt.Errorf("dashboard: empty title")
	}
	if !d.Time.From.IsZero() && !d.Time.To.IsZero() && d.Time.To.Before(d.Time.From) {
		return fmt.Errorf("dashboard: inverted time range")
	}
	seen := map[int]bool{}
	for _, row := range d.Rows {
		for _, p := range row.Panels {
			if seen[p.ID] {
				return fmt.Errorf("dashboard: duplicate panel id %d", p.ID)
			}
			seen[p.ID] = true
			if (p.Type == "graph" || p.Type == "histogram") && len(p.Targets) == 0 {
				return fmt.Errorf("dashboard: %s panel %d has no targets", p.Type, p.ID)
			}
			for _, tgt := range p.Targets {
				if strings.TrimSpace(tgt.Query) == "" {
					return fmt.Errorf("dashboard: panel %d has empty query", p.ID)
				}
				if _, err := tsdb.ParseQuery(tgt.Query); err != nil {
					return fmt.Errorf("dashboard: panel %d query: %w", p.ID, err)
				}
			}
		}
	}
	return nil
}
