package dashboard

import (
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/router"
	"repro/internal/tsdb"
)

// JobSource provides the job information the viewer shows; implemented by
// *router.JobRegistry.
type JobSource interface {
	Running() []*router.Job
	Get(id string) (*router.Job, bool)
}

// Viewer is the web front-end: the Grafana replacement. It serves
//
//	GET /                   admin view: running jobs with thumbnails
//	GET /job/<id>           user view: evaluation header + panels
//	GET /api/dashboard/<id> generated dashboard JSON (Grafana model)
//
// The views are generated per request from templates and live data, which
// reproduces the "automatically updated" property of the paper's front-end.
//
// All metric reads go through the Querier, so the viewer runs either
// in-process with the store (LocalQuerier) or as its own service against a
// remote lms-db (tsdb.Client) — the paper's topology, where web front-end
// and metrics database are separate services on separate hosts.
type Viewer struct {
	Querier tsdb.Querier
	DBName  string
	Jobs    JobSource
	Agent   *Agent
	// Now overrides the clock (tests).
	Now func() time.Time

	mux *http.ServeMux
}

// NewViewer wires the handler.
func NewViewer(qr tsdb.Querier, dbName string, jobs JobSource, agent *Agent) *Viewer {
	v := &Viewer{Querier: qr, DBName: dbName, Jobs: jobs, Agent: agent}
	mux := http.NewServeMux()
	mux.HandleFunc("/", v.handleAdmin)
	mux.HandleFunc("/job/", v.handleJob)
	mux.HandleFunc("/api/dashboard/", v.handleDashboardJSON)
	v.mux = mux
	return v
}

// ServeHTTP implements http.Handler.
func (v *Viewer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v.mux.ServeHTTP(w, r)
}

func (v *Viewer) now() time.Time {
	if v.Now != nil {
		return v.Now()
	}
	return time.Now()
}

// queryEnd is the end-of-range timestamp used for the panels of a still
// running job. It is rounded down to the second so that repeated refreshes
// of the same panel within the tsdb's query-cache TTL normalize to the
// same query and are served from the cache instead of re-aggregating.
func (v *Viewer) queryEnd() time.Time {
	return v.now().Truncate(time.Second)
}

func jobMeta(j *router.Job) analysis.JobMeta {
	return analysis.JobMeta{
		ID:    j.ID,
		User:  j.User,
		Nodes: append([]string(nil), j.Nodes...),
		Start: j.Start,
		End:   j.End,
	}
}

// handleAdmin renders the administrator main view: all currently running
// jobs with a thumbnail sparkline and key numbers.
func (v *Viewer) handleAdmin(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	jobs := v.Jobs.Running()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	var b strings.Builder
	b.WriteString("<html><head><title>LMS - running jobs</title></head><body><h1>Running jobs</h1><pre>\n")
	if len(jobs) == 0 {
		b.WriteString("no running jobs\n")
	}
	for _, j := range jobs {
		end := v.queryEnd()
		// Built as an AST, not a query string: against a LocalQuerier the
		// statement executes directly on the Select engine.
		st := tsdb.SelectStatement(tsdb.Query{
			Measurement: "likwid_mem_dp",
			Filter:      tsdb.TagFilter{"jobid": j.ID},
			Start:       j.Start,
			End:         end,
			Every:       time.Minute,
		}, tsdb.AggCol{Field: "dp_mflop_s", Agg: tsdb.AggMean})
		thumb := "(no data)"
		resp, err := v.Querier.Query(r.Context(), tsdb.Request{
			Database: v.DBName, Statements: []tsdb.Statement{st},
		})
		if err == nil && len(resp.Results) > 0 && len(resp.Results[0].Series) > 0 {
			s := summarize(resp.Results[0].Series[0])
			thumb = fmt.Sprintf("%s last %.4g MFLOP/s", Sparkline(s.Values), s.Last)
		}
		fmt.Fprintf(&b, "<a href=\"/job/%s\">job %-12s</a> user %-8s nodes %-3d started %s  %s\n",
			html.EscapeString(j.ID), html.EscapeString(j.ID), html.EscapeString(j.User),
			len(j.Nodes), j.Start.Format("15:04:05"), thumb)
	}
	b.WriteString("</pre></body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// handleJob renders the user view of one job: the evaluation header (Fig. 2)
// followed by the rendered panels (Fig. 3 / Fig. 4 style timelines).
func (v *Viewer) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/job/")
	job, ok := v.Jobs.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	meta := jobMeta(job)
	if meta.End.IsZero() {
		meta.End = v.queryEnd()
	}
	d, err := v.Agent.GenerateJobDashboardContext(r.Context(), meta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	text, err := RenderDashboard(r.Context(), v.Querier, v.DBName, d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><head><title>LMS - job %s</title></head><body><pre>\n%s</pre></body></html>\n",
		html.EscapeString(id), html.EscapeString(text))
}

// handleDashboardJSON exposes the generated Grafana-model JSON, which is
// what the original agent would POST to Grafana's dashboard API.
func (v *Viewer) handleDashboardJSON(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/dashboard/")
	job, ok := v.Jobs.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	meta := jobMeta(job)
	if meta.End.IsZero() {
		meta.End = v.queryEnd()
	}
	d, err := v.Agent.GenerateJobDashboardContext(r.Context(), meta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out, err := d.MarshalIndent()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}
