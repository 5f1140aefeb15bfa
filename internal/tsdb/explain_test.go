package tsdb

// EXPLAIN ANALYZE (DESIGN.md §14): the statement must parse and
// round-trip through Text() (the cluster ships pre-parsed statements as
// text), return the wrapped SELECT's rows byte-identically, and append
// the execution profile as one extra series the client can strip by its
// "explain_analyze" name prefix.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseExplainAnalyze(t *testing.T) {
	st := mustParse(t, "EXPLAIN ANALYZE SELECT mean(value) FROM cpu GROUP BY time(10s), hostname")
	if st.Kind != StmtExplainAnalyze {
		t.Fatalf("kind %v", st.Kind)
	}
	if st.Query.Measurement != "cpu" || st.Query.Cols[0].Agg != AggMean || st.Query.Every != 10*time.Second {
		t.Fatalf("wrapped select lost: %+v", st)
	}

	// Text() must round-trip so pre-parsed statements cross the cluster
	// wire losslessly.
	text := st.Text()
	if !strings.HasPrefix(text, "EXPLAIN ANALYZE SELECT") {
		t.Fatalf("Text() = %q", text)
	}
	again := mustParse(t, text)
	if again.Kind != StmtExplainAnalyze || again.Text() != text {
		t.Fatalf("round trip diverged: %q vs %q", again.Text(), text)
	}

	// The constructor agrees with the parser.
	built := ExplainAnalyzeStatement(st.Query, st.Query.Cols...)
	if built.Kind != StmtExplainAnalyze {
		t.Fatalf("constructor kind %v", built.Kind)
	}
}

func TestParseExplainAnalyzeErrors(t *testing.T) {
	for _, q := range []string{
		"EXPLAIN SELECT value FROM cpu",
		"EXPLAIN ANALYZE SHOW MEASUREMENTS",
		"EXPLAIN ANALYZE",
		"EXPLAIN",
	} {
		if _, err := ParseQuery(q); err == nil {
			t.Fatalf("%q parsed", q)
		}
	}
}

// stripExplain removes the appended profile series (single-node and
// cluster variants both carry the "explain_analyze" name prefix),
// returning them separately.
func stripExplain(rsp Response) (Response, []ResultSeries) {
	var profiles []ResultSeries
	out := rsp
	out.Results = nil
	for _, res := range rsp.Results {
		kept := res
		kept.Series = nil
		for _, s := range res.Series {
			if strings.HasPrefix(s.Name, ExplainSeriesName) {
				profiles = append(profiles, s)
				continue
			}
			kept.Series = append(kept.Series, s)
		}
		out.Results = append(out.Results, kept)
	}
	return out, profiles
}

func explainMetric(t *testing.T, s ResultSeries, name string) interface{} {
	t.Helper()
	for _, row := range s.Values {
		if row[0] == name {
			return row[1]
		}
	}
	t.Fatalf("profile missing %q: %+v", name, s.Values)
	return nil
}

// explainCount coerces a profile counter: an in-process LocalQuerier
// keeps the engine's int/int64 types, the HTTP path delivers float64.
func explainCount(t *testing.T, s ResultSeries, name string) int64 {
	t.Helper()
	switch v := explainMetric(t, s, name).(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case float64:
		return int64(v)
	default:
		t.Fatalf("profile %q has non-numeric value %T", name, v)
		return 0
	}
}

// TestExplainAnalyzeByteIdentity is acceptance: for every statement of
// the equivalence corpus shape, EXPLAIN ANALYZE returns the SELECT's own
// rows byte-for-byte once the profile series is stripped.
func TestExplainAnalyzeByteIdentity(t *testing.T) {
	store := seedStore(t)
	store.DB("lms").SetQueryCacheTTL(0)
	qr := LocalQuerier{Store: store}
	ctx := context.Background()
	for _, sel := range []string{
		"SELECT value FROM cpu",
		"SELECT * FROM cpu",
		"SELECT mean(value) FROM cpu GROUP BY time(10s), hostname",
		"SELECT max(value) FROM cpu WHERE hostname = 'h1' LIMIT 2",
		"SELECT value FROM ghost",
	} {
		want, err := qr.Query(ctx, Request{Database: "lms", RawQuery: sel, Epoch: "ns"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := qr.Query(ctx, Request{Database: "lms", RawQuery: "EXPLAIN ANALYZE " + sel, Epoch: "ns"})
		if err != nil {
			t.Fatal(err)
		}
		stripped, profiles := stripExplain(got)
		if len(profiles) != 1 || profiles[0].Name != ExplainSeriesName {
			t.Fatalf("%q: want one %s series, got %+v", sel, ExplainSeriesName, profiles)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(stripped)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%q: EXPLAIN ANALYZE changed the rows:\n got: %s\nwant: %s", sel, gotJSON, wantJSON)
		}
	}
}

func TestExplainAnalyzeProfile(t *testing.T) {
	store := seedStore(t)
	db := store.DB("lms")
	db.SetQueryCacheTTL(time.Hour)
	qr := LocalQuerier{Store: store}
	ctx := context.Background()

	run := func() ResultSeries {
		rsp, err := qr.Query(ctx, Request{Database: "lms", RawQuery: "EXPLAIN ANALYZE SELECT mean(value) FROM cpu GROUP BY hostname"})
		if err != nil {
			t.Fatal(err)
		}
		_, profiles := stripExplain(rsp)
		if len(profiles) != 1 {
			t.Fatalf("profiles %+v", profiles)
		}
		return profiles[0]
	}

	cold := run()
	if cols := cold.Columns; len(cols) != 2 || cols[0] != "metric" || cols[1] != "value" {
		t.Fatalf("columns %v", cold.Columns)
	}
	if n := explainCount(t, cold, "runs_scanned"); n <= 0 {
		t.Fatalf("runs_scanned %v", n)
	}
	if n := explainCount(t, cold, "points_examined"); n != 10 {
		t.Fatalf("points_examined %v, want 10", n)
	}
	if n := explainCount(t, cold, "shards_visited"); n != 1 {
		t.Fatalf("shards_visited %v", n)
	}
	if got := explainMetric(t, cold, "cache").(string); got != "miss" {
		t.Fatalf("cold cache %q", got)
	}
	if n := explainCount(t, cold, "phase_total_ns"); n <= 0 {
		t.Fatalf("phase_total_ns %v", n)
	}

	// A cached re-run reports the hit and skips the engine phases.
	warm := run()
	if got := explainMetric(t, warm, "cache").(string); got != "hit" {
		t.Fatalf("warm cache %q", got)
	}
	if n := explainCount(t, warm, "points_examined"); n != 0 {
		t.Fatalf("warm points_examined %v", n)
	}
}

// TestExplainAnalyzeOneClock: with a trace attached, each phase figure of
// the EXPLAIN ANALYZE profile IS the duration of the span of that phase in
// the same request — one pair of clock reads feeds both (phase,
// profile.go) — and with neither instrument attached a phase reads no
// clock and allocates nothing.
func TestExplainAnalyzeOneClock(t *testing.T) {
	store := seedStore(t)
	store.DB("lms").SetQueryCacheTTL(0)
	ring := obs.NewTraceRing(2)
	tr := ring.StartTrace("test", "")
	rsp, err := LocalQuerier{Store: store}.Query(obs.WithTrace(context.Background(), tr),
		Request{Database: "lms", RawQuery: "EXPLAIN ANALYZE SELECT mean(value) FROM cpu GROUP BY hostname"})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	_, profiles := stripExplain(rsp)
	traces := ring.Snapshot(0, 0)
	if len(profiles) != 1 || len(traces) != 1 {
		t.Fatalf("want one profile and one trace, got %d and %d", len(profiles), len(traces))
	}
	spanNS := map[string]int64{}
	for _, sp := range traces[0].Spans {
		spanNS[sp.Name] = sp.DurNS
	}
	for metric, span := range map[string]string{
		"phase_cache_lookup_ns": "tsdb.select.cache",
		"phase_snapshot_ns":     "tsdb.select.snapshot",
		"phase_execute_ns":      "tsdb.select.execute",
		"phase_total_ns":        "tsdb.select",
	} {
		dur, ok := spanNS[span]
		if !ok {
			t.Fatalf("trace has no %s span: %+v", span, traces[0].Spans)
		}
		if got := explainCount(t, profiles[0], metric); got != dur || got <= 0 {
			t.Fatalf("%s = %d ns but span %s lasted %d ns: the phase was timed twice", metric, got, span, dur)
		}
	}

	if !beginPhase(nil, nil, phaseTotal).start.IsZero() {
		t.Fatal("an untraced, unprofiled phase read the clock")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ph := beginPhase(nil, nil, phaseExecute)
		ph.span.AttrInt("groups", 3)
		ph.end()
	}); allocs != 0 {
		t.Fatalf("an untraced, unprofiled phase allocates: %v allocs/op", allocs)
	}
}

// TestHandlerTracesQuery pins in-process trace recording on the HTTP
// surface: a /query carrying an upstream X-Lms-Trace id lands in the
// store's ring under that id with the handler and engine spans, and
// /debug/traces serves it back.
func TestHandlerTracesQuery(t *testing.T) {
	store := seedStore(t)
	store.DB("lms").SetQueryCacheTTL(0)
	ring := obs.NewTraceRing(8)
	store.SetTraces(ring)
	h := NewHandler(store)

	const id = "0123456789abcdef"
	req := httptest.NewRequest("GET", "/query?db=lms&q="+
		strings.ReplaceAll("SELECT mean(value) FROM cpu GROUP BY hostname", " ", "%20"), nil)
	req.Header.Set(obs.TraceHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}

	d, ok := ring.Find(id)
	if !ok {
		t.Fatalf("trace %s not recorded; ring has %+v", id, ring.Snapshot(0, 0))
	}
	names := map[string]obs.SpanData{}
	for _, sp := range d.Spans {
		names[sp.Name] = sp
	}
	for _, want := range []string{"tsdb.http.query", "tsdb.select", "tsdb.select.cache", "tsdb.select.snapshot", "tsdb.select.execute"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("trace missing span %q: %+v", d.Spans, names)
		}
	}
	if got := names["tsdb.http.query"].Attr("db"); got != "lms" {
		t.Fatalf("db attr %q", got)
	}

	// The ring is served on the handler's own /debug/traces.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("/debug/traces: %d %s", rec.Code, rec.Body.String())
	}
}

// TestHandlerTracesWrite: a traced /write records the ingest spans down
// through the storage engine under the upstream id.
func TestHandlerTracesWrite(t *testing.T) {
	store := NewStore()
	store.CreateDatabase("lms")
	ring := obs.NewTraceRing(8)
	store.SetTraces(ring)
	h := NewHandler(store)

	const id = "feedbeeffeedbeef"
	body := "cpu,hostname=h1 value=1.5 1000000000\n"
	req := httptest.NewRequest("POST", "/write?db=lms", strings.NewReader(body))
	req.Header.Set(obs.TraceHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 204 {
		t.Fatalf("write: %d %s", rec.Code, rec.Body.String())
	}
	d, ok := ring.Find(id)
	if !ok {
		t.Fatal("write trace not recorded")
	}
	var haveHTTP, haveApply bool
	for _, sp := range d.Spans {
		switch sp.Name {
		case "tsdb.http.write":
			haveHTTP = sp.Attr("points") == "1"
		case "tsdb.apply":
			haveApply = true
		}
	}
	if !haveHTTP || !haveApply {
		t.Fatalf("write spans incomplete: %+v", d.Spans)
	}
}

// TestHandlerDebugTracesDisabled: without a ring the endpoint answers 404
// instead of an empty array, so operators can tell "off" from "idle".
func TestHandlerDebugTracesDisabled(t *testing.T) {
	h := NewHandler(NewStore())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled /debug/traces: %d", rec.Code)
	}
}

// TestSlowQueryLogCarriesTraceID: the slow-query line (satellite of the
// tracing work) names the request's trace so operators can jump from the
// log to /debug/traces.
func TestSlowQueryLogCarriesTraceID(t *testing.T) {
	store := seedStore(t)
	ring := obs.NewTraceRing(4)
	store.SetTraces(ring)
	h := NewHandler(store)
	h.SlowQueryThreshold = time.Nanosecond // everything is slow
	var lines []string
	h.Logf = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	const id = "cafecafecafecafe"
	req := httptest.NewRequest("GET", "/query?db=lms&q=SELECT%20value%20FROM%20cpu", nil)
	req.Header.Set(obs.TraceHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("query: %d", rec.Code)
	}
	if len(lines) == 0 || !strings.Contains(lines[0], "trace="+id) {
		t.Fatalf("slow-query line missing trace id: %q", lines)
	}
}
