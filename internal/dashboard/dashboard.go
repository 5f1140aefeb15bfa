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
// as unicode sparkline graphs.
package dashboard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/template"
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

// PanelTemplate is a JSON panel description with text/template
// placeholders. Context fields available during execution:
//
//	{{.JobID}} {{.User}} {{.Measurement}} {{.Field}} {{.StartNS}} {{.EndNS}}
type PanelTemplate struct {
	// Measurement selects this template when the measurement is present
	// for the job's hosts; "*" is the generic fallback.
	Measurement string
	// JSON is the panel body with placeholders.
	JSON string
}

// templateContext is the data available to panel templates.
type templateContext struct {
	JobID       string
	User        string
	Measurement string
	Field       string
	StartNS     int64
	EndNS       int64
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

// findTemplate picks the first builtin template whose Measurement matches,
// else the first "*" fallback.
func findTemplate(meas string) (PanelTemplate, bool) {
	var fallback PanelTemplate
	haveFallback := false
	for _, t := range BuiltinTemplates() {
		if t.Measurement == meas {
			return t, true
		}
		if t.Measurement == "*" && !haveFallback {
			fallback = t
			haveFallback = true
		}
	}
	return fallback, haveFallback
}

// renderPanel executes one panel template.
func renderPanel(tpl PanelTemplate, ctx templateContext, id int) (Panel, error) {
	t, err := template.New(tpl.Measurement).Parse(tpl.JSON)
	if err != nil {
		return Panel{}, fmt.Errorf("dashboard: template %q: %w", tpl.Measurement, err)
	}
	var buf bytes.Buffer
	if err := t.Execute(&buf, ctx); err != nil {
		return Panel{}, fmt.Errorf("dashboard: execute %q: %w", tpl.Measurement, err)
	}
	var p Panel
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		return Panel{}, fmt.Errorf("dashboard: template %q produced invalid JSON: %w", tpl.Measurement, err)
	}
	p.ID = id
	if p.Span == 0 {
		p.Span = 6
	}
	return p, nil
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
		Title: fmt.Sprintf("Job %s", job.ID),
		UID:   "job-" + job.ID,
		Tags:  []string{"lms", "job"},
		Time:  TimeRange{From: job.Start, To: end},
		Annotations: []Annotation{{
			Name:  "job events",
			Query: fmt.Sprintf("SELECT text FROM events WHERE jobid = '%s'", job.ID),
		}},
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
	ctxBase := templateContext{
		JobID:   job.ID,
		User:    job.User,
		StartNS: job.Start.UnixNano(),
		EndNS:   end.UnixNano(),
	}
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
		tpl, ok := findTemplate(meas)
		if !ok {
			continue
		}
		row := Row{Title: meas}
		for _, field := range fieldsPerMeas[mi] {
			ctx := ctxBase
			ctx.Measurement = meas
			ctx.Field = field
			p, err := renderPanel(tpl, ctx, id)
			if err != nil {
				return nil, err
			}
			id++
			row.Panels = append(row.Panels, p)
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
