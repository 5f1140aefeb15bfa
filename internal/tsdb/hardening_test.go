package tsdb

// Regression tests for the PR-6 ingest/query hardening sweep: oversized
// /write bodies are refused with 413 instead of silently truncated,
// precision scaling rejects timestamp overflow, the admission gate sheds
// load with 429 + Retry-After, truncated chunked /query streams are
// detected on both ends, and /metrics agrees with oracle counts.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
)

func TestHTTPWriteOversizedBody413(t *testing.T) {
	store := NewStore()
	h := NewHandler(store)
	h.MaxBodyBytes = 64
	srv := httptest.NewServer(h)
	defer srv.Close()

	// A body over the cap that happens to end exactly on a line boundary:
	// the old LimitReader truncation would have parsed the prefix cleanly
	// and acknowledged a partial batch.
	var b strings.Builder
	for i := 0; b.Len() <= 64; i++ {
		fmt.Fprintf(&b, "cpu value=%d %d\n", i, int64(i+1)*1e9)
	}
	resp, err := http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if db := store.DB("lms"); db != nil && db.PointCount() != 0 {
		t.Fatalf("refused write stored %d points", db.PointCount())
	}

	// At the cap is still accepted.
	line := "cpu value=1 1000000000\n"
	h.MaxBodyBytes = int64(len(line))
	resp, err = http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("at-cap write status %d, want 204", resp.StatusCode)
	}
}

func TestHTTPWritePrecisionOverflow(t *testing.T) {
	store, srv := newTestServer(t)
	// 9e15 hours of Unix time does not fit in int64 nanoseconds; the old
	// unchecked multiply wrapped it into a garbage timestamp and stored it.
	resp, err := http.Post(srv.URL+"/write?db=lms&precision=h", "text/plain",
		strings.NewReader("cpu value=1 9000000000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "overflow") {
		t.Fatalf("error does not mention overflow: %s", body)
	}
	if db := store.DB("lms"); db != nil && db.PointCount() != 0 {
		t.Fatalf("refused write stored %d points", db.PointCount())
	}
	// A sane hour-precision timestamp still works.
	resp, err = http.Post(srv.URL+"/write?db=lms&precision=h", "text/plain",
		strings.NewReader("cpu value=1 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid hour write status %d", resp.StatusCode)
	}
	res, err := store.DB("lms").SelectContext(bg, Query{Measurement: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Time; got != time.Unix(0, 0).Add(100*time.Hour).UTC() {
		t.Fatalf("time %v, want 100h after epoch", got)
	}
}

func TestHTTPWriteAdmissionShed(t *testing.T) {
	store := NewStore()
	h := NewHandler(store)
	h.SetAdmission(0, 16) // byte budget far below the body below
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := strings.Repeat("cpu value=1 1000000000\n", 4)
	resp, err := http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	mb := scrapeMetrics(t, srv.URL)
	if !strings.Contains(mb, "lms_http_requests_shed_total 1") {
		t.Fatalf("shed not counted on /metrics:\n%s", grepMetrics(mb, "shed"))
	}
	if !strings.Contains(mb, "lms_http_inflight_requests 0") {
		t.Fatalf("in-flight not released:\n%s", grepMetrics(mb, "inflight"))
	}

	// Clearing the gate admits the same request again.
	h.SetAdmission(0, 0)
	resp, err = http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-clear write status %d", resp.StatusCode)
	}
}

// TestClientDetectsTruncatedStream pins the client half of the chunked
// truncation fix: a 2xx body with fewer results than statements is a
// retryable error, not a silently short Response.
func TestClientDetectsTruncatedStream(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			// First attempt: one result for a two-statement query.
			fmt.Fprintln(w, `{"results":[{"statement_id":0}]}`)
			return
		}
		fmt.Fprintln(w, `{"results":[{"statement_id":0}]}`)
		fmt.Fprintln(w, `{"results":[{"statement_id":1}]}`)
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Database: "lms", RetryBackoff: time.Millisecond}
	resp, err := c.Query(context.Background(), Request{
		RawQuery: "SELECT value FROM cpu; SELECT value FROM mem",
		Chunked:  true,
	})
	if err != nil {
		t.Fatalf("retry did not recover the truncated stream: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results %d, want 2", len(resp.Results))
	}
	if calls.Load() != 2 {
		t.Fatalf("server calls %d, want 2 (one truncated, one retry)", calls.Load())
	}

	// With retries disabled the truncation surfaces as an error.
	calls.Store(0)
	c2 := &Client{BaseURL: srv.URL, Database: "lms", MaxRetries: -1}
	_, err = c2.Query(context.Background(), Request{
		RawQuery: "SELECT value FROM cpu; SELECT value FROM mem",
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncated-stream error", err)
	}
}

// TestHTTPQueryTruncationErrorDoc pins the server half: when statement
// execution dies mid-stream the handler appends an explicit error
// document instead of ending the stream as if it were complete.
func TestHTTPQueryTruncationErrorDoc(t *testing.T) {
	store := NewStore()
	db := store.CreateDatabase("lms")
	mustWrite(t, db, "cpu value=1 1000000000")
	h := NewHandler(store)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // execStatements fails immediately with context.Canceled
	req := httptest.NewRequest(http.MethodGet,
		"/query?db=lms&chunked=true&q="+
			"SELECT+value+FROM+cpu", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "stream truncated") {
		t.Fatalf("no trailing error document:\n%s", rec.Body.String())
	}

	// Same for the non-chunked path.
	req = httptest.NewRequest(http.MethodGet,
		"/query?db=lms&q=SELECT+value+FROM+cpu", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "stream truncated") {
		t.Fatalf("non-chunked: no error document:\n%s", rec.Body.String())
	}
}

// TestMetricsOracle writes and queries through the handler and asserts the
// /metrics document against independently known counts.
func TestMetricsOracle(t *testing.T) {
	store := NewStore()
	h := NewHandler(store)
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := "cpu value=0.5 1000000000\ncpu value=0.7 2000000000\nmem value=3 1000000000\n"
	resp, err := http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("write status %d", resp.StatusCode)
	}

	c := &Client{BaseURL: srv.URL, Database: "lms"}
	for i := 0; i < 3; i++ { // identical queries: 1 miss + 2 cache hits
		if _, err := queryText(c, "SELECT mean(value) FROM cpu"); err != nil {
			t.Fatal(err)
		}
	}

	mb := scrapeMetrics(t, srv.URL)
	for _, want := range []string{
		"lms_ingest_points_total 3",
		"lms_ingest_batches_total 1",
		fmt.Sprintf("lms_ingest_bytes_total %d", len(body)),
		"lms_dropped_points_total 0",
		`lms_db_points{db="lms"} 3`,
		`lms_db_query_cache_hits_total{db="lms"} 2`,
		`lms_db_query_cache_misses_total{db="lms"} 1`,
		"lms_query_seconds_count 3",
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepMetrics(mb, "lms_"))
		}
	}

	// Per-shard resident points sum to the database total.
	sum := 0
	for _, n := range store.DB("lms").shardPointCounts() {
		sum += n
	}
	if sum != 3 {
		t.Fatalf("shard point counts sum to %d, want 3", sum)
	}

	// A refused batch counts drops, not ingest.
	err = store.DB("lms").WriteBatchContext(bg, []lineproto.Point{{Measurement: ""}})
	if err == nil {
		t.Fatal("invalid point accepted")
	}
	mb = scrapeMetrics(t, srv.URL)
	if !strings.Contains(mb, "lms_dropped_points_total 1") {
		t.Errorf("drop not counted:\n%s", grepMetrics(mb, "dropped"))
	}
	if !strings.Contains(mb, "lms_ingest_points_total 3") {
		t.Errorf("refused batch counted as ingest:\n%s", grepMetrics(mb, "ingest"))
	}
}

// TestSlowQueryLogging: a slow query is logged once and counted. Not
// parallel: it captures the process-wide logger.
func TestSlowQueryLogging(t *testing.T) {
	store := NewStore()
	db := store.CreateDatabase("lms")
	mustWrite(t, db, "cpu value=1 1000000000")
	h := NewHandler(store)
	h.SlowQueryThreshold = time.Nanosecond // everything is slow
	var log strings.Builder
	prev := obs.Log().SetOutput(&log)
	defer obs.Log().SetOutput(prev)
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Database: "lms"}
	if _, err := queryText(c, "SELECT value FROM cpu"); err != nil {
		t.Fatal(err)
	}
	obs.Log().SetOutput(prev) // the handler logged before its response ended
	if n := strings.Count(log.String(), "slow query"); n != 1 {
		t.Fatalf("slow-query log lines = %d, want 1", n)
	}
	if !strings.Contains(scrapeMetrics(t, srv.URL), "lms_slow_queries_total 1") {
		t.Fatal("lms_slow_queries_total not incremented")
	}
}

// mustWrite parses one or more line-protocol lines and writes them as a
// batch.
func mustWrite(t *testing.T, db *DB, lines string) {
	t.Helper()
	pts, err := lineproto.Parse([]byte(lines))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBatchContext(bg, pts); err != nil {
		t.Fatal(err)
	}
}

// scrapeMetrics fetches and returns the /metrics document.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// grepMetrics filters a metrics document to lines containing substr, for
// readable failure messages.
func grepMetrics(doc, substr string) string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, substr) && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
