package dashboard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/lineproto"
	"repro/internal/router"
	"repro/internal/tsdb"
)

func seedStore(t *testing.T) (*tsdb.Store, analysis.JobMeta) {
	t.Helper()
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	start := time.Unix(100000, 0).UTC()
	nodes := []string{"h1", "h2"}
	for i := 0; i < 30; i++ {
		ts := start.Add(time.Duration(i) * time.Minute)
		for _, node := range nodes {
			err := db.WriteBatchContext(context.Background(), []lineproto.Point{
				lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{"percent": lineproto.Float(90 + float64(i%5))},
					ts,
				),
				lineproto.NewPoint(
					"likwid_mem_dp",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{
						"dp_mflop_s":                lineproto.Float(2000),
						"memory_bandwidth_mbytes_s": lineproto.Float(9000),
						"ipc":                       lineproto.Float(1.4),
					},
					ts,
				),
				lineproto.NewPoint(
					"pressure",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{"value": lineproto.Float(5.9)},
					ts,
				),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = db.WriteBatchContext(context.Background(), []lineproto.Point{lineproto.NewPoint(
		"events",
		map[string]string{"jobid": "42", "type": "jobstart"},
		map[string]lineproto.Value{"text": lineproto.String("jobstart job 42")},
		start,
	)})
	job := analysis.JobMeta{
		ID: "42", User: "alice", Nodes: nodes,
		Start: start, End: start.Add(30 * time.Minute),
	}
	return store, job
}

func TestGenerateJobDashboard(t *testing.T) {
	store, job := seedStore(t)
	qr := tsdb.LocalQuerier{Store: store}
	agent := &Agent{Querier: qr, Database: "lms", Evaluator: &analysis.Evaluator{Querier: qr, Database: "lms"}}
	d, err := agent.GenerateJobDashboard(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Title != "Job 42" || d.UID != "job-42" {
		t.Fatalf("%+v", d)
	}
	if !d.Time.From.Equal(job.Start) || !d.Time.To.Equal(job.End) {
		t.Fatalf("time range %+v", d.Time)
	}
	// Rows: evaluation header + cpu + likwid_mem_dp + pressure (events
	// hidden).
	if len(d.Rows) != 4 {
		titles := make([]string, len(d.Rows))
		for i, r := range d.Rows {
			titles[i] = r.Title
		}
		t.Fatalf("rows %v", titles)
	}
	if d.Rows[0].Title != "Job evaluation" || d.Rows[0].Panels[0].Type != "text" {
		t.Fatalf("header row %+v", d.Rows[0])
	}
	if !strings.Contains(d.Rows[0].Panels[0].Content, "Job 42") {
		t.Fatal("evaluation content missing")
	}
	// The likwid row has one panel per field.
	var likwidRow *Row
	for i := range d.Rows {
		if d.Rows[i].Title == "likwid_mem_dp" {
			likwidRow = &d.Rows[i]
		}
	}
	if likwidRow == nil || len(likwidRow.Panels) != 3 {
		t.Fatalf("likwid row %+v", likwidRow)
	}
	// Queries carry the job id and the time range.
	q := likwidRow.Panels[0].Targets[0].Query
	if !strings.Contains(q, "jobid = '42'") || !strings.Contains(q, "GROUP BY time(60s), hostname") {
		t.Fatalf("query %q", q)
	}
	// The pressure measurement (application-level) used the fallback
	// template.
	found := false
	for _, row := range d.Rows {
		if row.Title == "pressure" {
			found = true
		}
	}
	if !found {
		t.Fatal("application measurement not templated")
	}
	// Annotations reference the job events.
	if len(d.Annotations) != 1 || !strings.Contains(d.Annotations[0].Query, "jobid = '42'") {
		t.Fatalf("annotations %+v", d.Annotations)
	}
}

func TestGenerateJobDashboardHostSelection(t *testing.T) {
	store, job := seedStore(t)
	db := store.DB("lms")
	// Data from an unrelated host in another measurement must not add a row.
	_ = db.WriteBatchContext(context.Background(), []lineproto.Point{lineproto.NewPoint(
		"othermetric",
		map[string]string{"hostname": "h99"},
		map[string]lineproto.Value{"v": lineproto.Float(1)},
		job.Start,
	)})
	agent := &Agent{Querier: tsdb.LocalQuerier{Store: store}, Database: "lms"}
	d, err := agent.GenerateJobDashboard(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.Rows {
		if row.Title == "othermetric" {
			t.Fatal("foreign host measurement included")
		}
	}
}

func TestGenerateRunningJobDashboard(t *testing.T) {
	store, job := seedStore(t)
	job.End = time.Time{} // running
	agent := &Agent{Querier: tsdb.LocalQuerier{Store: store}, Database: "lms"}
	d, err := agent.GenerateJobDashboard(job)
	if err != nil {
		t.Fatal(err)
	}
	if d.Time.To.Before(d.Time.From) {
		t.Fatal("bad time range for running job")
	}
}

func TestAgentValidation(t *testing.T) {
	agent := &Agent{}
	if _, err := agent.GenerateJobDashboard(analysis.JobMeta{ID: "x"}); err == nil {
		t.Fatal("nil querier accepted")
	}
}

func TestDashboardValidateCatchesBadness(t *testing.T) {
	bad := []Dashboard{
		{},
		{Title: "x", Rows: []Row{{Panels: []Panel{{ID: 1, Type: "graph"}}}}},
		{Title: "x", Rows: []Row{{Panels: []Panel{{ID: 1, Type: "graph", Targets: []Target{{Query: " "}}}}}}},
		{Title: "x", Rows: []Row{{Panels: []Panel{{ID: 1, Type: "graph", Targets: []Target{{Query: "NOT A QUERY"}}}}}}},
		{Title: "x", Rows: []Row{{Panels: []Panel{
			{ID: 1, Type: "text"}, {ID: 1, Type: "text"},
		}}}},
		{Title: "x", Time: TimeRange{From: time.Unix(100, 0), To: time.Unix(50, 0)}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if s != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp %q", s)
	}
	if got := Sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Errorf("flat %q", got)
	}
	if got := Sparkline([]float64{math.NaN(), 1, math.NaN()}); got != " ▁ " {
		t.Errorf("nan %q", got)
	}
	if got := Sparkline([]float64{math.NaN()}); got != " " {
		t.Errorf("all-nan %q", got)
	}
}

func TestRenderDashboardText(t *testing.T) {
	store, job := seedStore(t)
	qr := tsdb.LocalQuerier{Store: store}
	agent := &Agent{Querier: qr, Database: "lms", Evaluator: &analysis.Evaluator{Querier: qr, Database: "lms"}}
	d, err := agent.GenerateJobDashboard(job)
	if err != nil {
		t.Fatal(err)
	}
	text, err := RenderDashboard(context.Background(), qr, "lms", d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"### Job 42 ###",
		"event @", "jobstart job 42",
		"-- likwid_mem_dp --",
		"hostname=h1", "hostname=h2",
		"min", "max", "last",
		"Online job evaluation",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in rendering:\n%s", want, text)
		}
	}
	// Sparkline characters present.
	if !strings.ContainsAny(text, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no sparkline in rendering:\n%s", text)
	}
}

func TestRenderPanelUnknownType(t *testing.T) {
	store, _ := seedStore(t)
	if _, err := RenderPanel(context.Background(), tsdb.LocalQuerier{Store: store}, "lms", Panel{ID: 1, Type: "piechart"}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestRenderPanelNoData(t *testing.T) {
	store := tsdb.NewStore()
	store.CreateDatabase("lms")
	out, err := RenderPanel(context.Background(), tsdb.LocalQuerier{Store: store}, "lms", Panel{
		ID: 1, Type: "graph", Title: "t",
		Targets: []Target{{Query: "SELECT value FROM ghost"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("%q", out)
	}
}

func newViewerEnv(t *testing.T) (*httptest.Server, *router.JobRegistry) {
	t.Helper()
	store, job := seedStore(t)
	qr := tsdb.LocalQuerier{Store: store}
	jobs := router.NewJobRegistry(10)
	_ = jobs.Start(&router.Job{ID: job.ID, User: job.User, Nodes: job.Nodes, Start: job.Start})
	agent := &Agent{Querier: qr, Database: "lms", Evaluator: &analysis.Evaluator{Querier: qr, Database: "lms"}}
	v := NewViewer(qr, "lms", jobs, agent)
	v.Now = func() time.Time { return job.Start.Add(30 * time.Minute) }
	srv := httptest.NewServer(v)
	t.Cleanup(srv.Close)
	return srv, jobs
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestViewerAdminView(t *testing.T) {
	srv, _ := newViewerEnv(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "Running jobs") || !strings.Contains(body, "job 42") {
		t.Fatalf("admin view:\n%s", body)
	}
	if !strings.Contains(body, "/job/42") {
		t.Fatal("job link missing")
	}
	if !strings.Contains(body, "MFLOP/s") {
		t.Fatal("thumbnail missing")
	}
}

func TestViewerJobView(t *testing.T) {
	srv, _ := newViewerEnv(t)
	code, body := get(t, srv.URL+"/job/42")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"Online job evaluation", "likwid_mem_dp", "pressure"} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q:\n%s", want, body)
		}
	}
	code, _ = get(t, srv.URL+"/job/ghost")
	if code != http.StatusNotFound {
		t.Fatalf("ghost job status %d", code)
	}
}

func TestViewerDashboardJSON(t *testing.T) {
	srv, _ := newViewerEnv(t)
	code, body := get(t, srv.URL+"/api/dashboard/42")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var d Dashboard
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.UID != "job-42" || len(d.Rows) == 0 {
		t.Fatalf("%+v", d)
	}
	code, _ = get(t, srv.URL+"/api/dashboard/ghost")
	if code != http.StatusNotFound {
		t.Fatalf("ghost status %d", code)
	}
}

func TestViewerEmptyAdminView(t *testing.T) {
	store := tsdb.NewStore()
	store.CreateDatabase("lms")
	jobs := router.NewJobRegistry(10)
	qr := tsdb.LocalQuerier{Store: store}
	v := NewViewer(qr, "lms", jobs, &Agent{Querier: qr, Database: "lms"})
	srv := httptest.NewServer(v)
	defer srv.Close()
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "no running jobs") {
		t.Fatalf("%d %s", code, body)
	}
	code, _ = get(t, srv.URL+"/nonsense")
	if code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
}

func TestBuiltinTemplatesValid(t *testing.T) {
	for meas := range panelStyles {
		for _, tgt := range jobPanel(1, meas, "value", "1", time.Unix(0, 0), time.Unix(0, 1000)).Targets {
			if _, err := tsdb.ParseQuery(tgt.Query); err != nil {
				t.Fatalf("%s: query %q: %v", meas, tgt.Query, err)
			}
		}
	}
}

// parsesTo checks that query text parses to exactly one statement, a
// SELECT of want (bounds compared as instants).
func parsesTo(query string, want tsdb.Query) error {
	stmts, err := tsdb.ParseQuery(query)
	if err != nil {
		return err
	}
	if len(stmts) != 1 || stmts[0].Kind != tsdb.StmtSelect {
		return fmt.Errorf("%q is not one SELECT: %+v", query, stmts)
	}
	got := stmts[0].Query
	if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
		return fmt.Errorf("%q covers %v..%v, want %v..%v", query, got.Start, got.End, want.Start, want.End)
	}
	got.Start, got.End = want.Start, want.End
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%q parses to %+v, want %+v", query, got, want)
	}
	return nil
}

// checkJobQueries checks that a job's panel and annotation queries parse
// back to the statements they were built from.
func checkJobQueries(meas, field, jobID string, start, end time.Time) error {
	p := jobPanel(100, meas, field, jobID, start, end)
	if len(p.Targets) != 1 {
		return fmt.Errorf("panel has %d targets", len(p.Targets))
	}
	err := parsesTo(p.Targets[0].Query, tsdb.Query{
		Measurement: meas,
		Start:       start,
		End:         end,
		Filter:      tsdb.TagFilter{"jobid": jobID},
		Cols:        []tsdb.AggCol{{Field: field, Agg: tsdb.AggMean}},
		GroupByTags: []string{"hostname"},
		Every:       time.Minute,
	})
	if err != nil {
		return fmt.Errorf("panel: %w", err)
	}
	err = parsesTo(jobEvents(jobID).Query, tsdb.Query{
		Measurement: "events",
		Filter:      tsdb.TagFilter{"jobid": jobID},
		Cols:        []tsdb.AggCol{{Field: "text"}},
	})
	if err != nil {
		return fmt.Errorf("annotation: %w", err)
	}
	return nil
}

// TestJobDashboardOddNames: measurement, field and job names the line
// protocol carries — spaces, commas, quotes, backslashes — must come out of
// the agent as a valid dashboard whose queries find the job's data.
func TestJobDashboardOddNames(t *testing.T) {
	cases := []struct{ meas, field, job string }{
		{"app", "step time", "7"},
		{"app", "a,b", "7"},
		{"app", `a"b`, "7"},
		{"my app", "value", "7"},
		{`my"app`, "value", "7"},
		{"app", "value", "7'x"},
		{"app", "value", `7"x`},
		{"app", "value", `7\x`},
	}
	for _, c := range cases {
		t.Run(c.meas+"/"+c.field+"/"+c.job, func(t *testing.T) {
			store := tsdb.NewStore()
			db := store.CreateDatabase("lms")
			start := time.Unix(100000, 0).UTC()
			var pts []lineproto.Point
			for i := 0; i < 10; i++ {
				pts = append(pts, lineproto.NewPoint(
					c.meas,
					map[string]string{"hostname": "h1", "jobid": c.job},
					map[string]lineproto.Value{c.field: lineproto.Float(float64(i))},
					start.Add(time.Duration(i)*time.Minute),
				))
			}
			pts = append(pts, lineproto.NewPoint(
				"events",
				map[string]string{"jobid": c.job, "type": "jobstart"},
				map[string]lineproto.Value{"text": lineproto.String("jobstart odd")},
				start,
			))
			if err := db.WriteBatchContext(context.Background(), pts); err != nil {
				t.Fatal(err)
			}
			job := analysis.JobMeta{ID: c.job, User: "alice", Nodes: []string{"h1"}, Start: start, End: start.Add(10 * time.Minute)}
			qr := tsdb.LocalQuerier{Store: store}
			agent := &Agent{Querier: qr, Database: "lms"}
			d, err := agent.GenerateJobDashboard(job)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(d.Rows) != 1 || d.Rows[0].Title != c.meas || len(d.Rows[0].Panels) != 1 {
				t.Fatalf("rows %+v", d.Rows)
			}
			if err := checkJobQueries(c.meas, c.field, c.job, job.Start, job.End); err != nil {
				t.Fatal(err)
			}
			text, err := RenderDashboard(context.Background(), qr, "lms", d)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"-- " + c.meas + " --", "hostname=h1", "▁", "█", "last 9", "jobstart odd"} {
				if !strings.Contains(text, want) {
					t.Fatalf("missing %q in rendering:\n%s", want, text)
				}
			}

			jobs := router.NewJobRegistry(10)
			if err := jobs.Start(&router.Job{ID: c.job, User: job.User, Nodes: job.Nodes, Start: job.Start}); err != nil {
				t.Fatal(err)
			}
			v := NewViewer(qr, "lms", jobs, agent)
			v.Now = func() time.Time { return job.End }
			srv := httptest.NewServer(v)
			defer srv.Close()
			for _, path := range []string{"/job/", "/api/dashboard/"} {
				if code, body := get(t, srv.URL+path+url.PathEscape(c.job)); code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, code, body)
				}
			}
		})
	}
}

// FuzzJobPanel: whatever measurement, field and job id the agent is handed,
// its panel and annotation queries parse back to what they were built from.
func FuzzJobPanel(f *testing.F) {
	f.Add("cpu", "percent", "42")
	f.Add("my\"app", "step time", "7'x")
	f.Add("app", "a,b", `7\x`)
	start, end := time.Unix(100000, 0), time.Unix(100600, 0)
	f.Fuzz(func(t *testing.T, meas, field, jobID string) {
		if meas == "" || field == "" {
			t.Skip() // the store holds no empty measurement or field name
		}
		if err := checkJobQueries(meas, field, jobID, start, end); err != nil {
			t.Fatal(err)
		}
	})
}
