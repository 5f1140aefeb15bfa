package tsdb

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// seedQuerierStore writes a deliberately diverse data set: several
// measurements, several tag sets, mixed value kinds (floats, large int64s
// beyond 2^53, bools, strings) and an out-of-order batch, so the
// equivalence suite exercises every JSON encoding path.
func seedQuerierStore(t testing.TB) *Store {
	t.Helper()
	store := NewStore()
	db := store.CreateDatabase("lms")
	base := time.Unix(1000, 0).UTC()
	var pts []lineproto.Point
	for i := 0; i < 50; i++ {
		ts := base.Add(time.Duration(i) * time.Second)
		for _, host := range []string{"h1", "h2"} {
			fields := map[string]lineproto.Value{
				"value": lineproto.Float(float64(i%7) + 0.25),
				"ticks": lineproto.Int(9007199254740993 + int64(i)), // > 2^53
				"busy":  lineproto.Bool(i%2 == 0),
			}
			if i%13 == 0 {
				// A sparse column: most rows lack it (presence bitmaps on
				// the columnar storage).
				fields["note"] = lineproto.String(fmt.Sprintf("mark-%d", i))
			}
			if i%5 == 0 {
				// A mixed-kind column: float on some rows, string on
				// others (forces the mixed representation).
				if i%2 == 0 {
					fields["mode"] = lineproto.Float(float64(i))
				} else {
					fields["mode"] = lineproto.String("burst")
				}
			}
			pts = append(pts,
				lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": host, "jobid": "42"},
					fields,
					ts,
				),
				lineproto.NewPoint(
					"likwid_mem_dp",
					map[string]string{"hostname": host},
					map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(2000 + float64(i))},
					ts,
				))
		}
	}
	pts = append(pts, lineproto.NewPoint(
		"events",
		map[string]string{"jobid": "42"},
		map[string]lineproto.Value{"text": lineproto.String("jobstart")},
		base,
	))
	if err := db.WriteBatchContext(bg, pts); err != nil {
		t.Fatal(err)
	}
	// An out-of-order batch, so multiple point runs exist.
	if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"cpu",
		map[string]string{"hostname": "h1", "jobid": "42"},
		map[string]lineproto.Value{"value": lineproto.Float(99)},
		base.Add(-10*time.Second),
	)}); err != nil {
		t.Fatal(err)
	}
	return store
}

// equivalenceStatements is the statement corpus both queriers must agree
// on, covering raw selects, aggregation, windowing, grouping, limits,
// percentiles, metadata statements and multi-statement scripts.
var equivalenceStatements = []string{
	"SELECT * FROM cpu",
	"SELECT value FROM cpu",
	"SELECT value FROM cpu WHERE hostname = 'h1' LIMIT 3",
	"SELECT ticks FROM cpu LIMIT 5",
	"SELECT mean(value) FROM cpu GROUP BY time(10s), hostname",
	"SELECT max(value) FROM cpu GROUP BY hostname",
	"SELECT count(value) FROM cpu WHERE time >= 1005000000000 AND time <= 1030000000000",
	"SELECT percentile(value, 90) FROM cpu",
	"SELECT note FROM cpu",
	"SELECT note, mode FROM cpu WHERE hostname = 'h2'",
	"SELECT count(note) FROM cpu GROUP BY time(15s)",
	"SELECT last(mode) FROM cpu GROUP BY hostname",
	"SELECT sum(dp_mflop_s) FROM likwid_mem_dp GROUP BY time(20s)",
	"SELECT text FROM events WHERE jobid = '42'",
	"SELECT value FROM ghost_measurement",
	"SHOW DATABASES",
	"SHOW MEASUREMENTS",
	"SHOW FIELD KEYS FROM cpu",
	"SHOW TAG KEYS FROM cpu",
	"SHOW TAG VALUES FROM cpu WITH KEY = hostname",
	"SHOW TAG VALUES WITH KEY = jobid",
	"SHOW MEASUREMENTS; SELECT mean(value) FROM cpu GROUP BY hostname",
}

// mustJSON canonicalizes a response for byte comparison.
func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQuerierLocalRemoteEquivalence is the acceptance suite of the query
// API: the same statements sent through a LocalQuerier and through the
// HTTP Client against the handler must produce byte-identical JSON — for
// raw text and pre-parsed statements, across epochs, chunked or not.
func TestQuerierLocalRemoteEquivalence(t *testing.T) {
	store := seedQuerierStore(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	local := LocalQuerier{Store: store}
	remote := &Client{BaseURL: srv.URL, Database: "lms"}
	ctx := context.Background()

	for _, epoch := range []string{"", "ns", "ms", "s"} {
		for _, chunked := range []bool{false, true} {
			for _, qtext := range equivalenceStatements {
				req := Request{Database: "lms", RawQuery: qtext, Epoch: epoch, Chunked: chunked}
				lresp, err := local.Query(ctx, req)
				if err != nil {
					t.Fatalf("local %q: %v", qtext, err)
				}
				rresp, err := remote.Query(ctx, req)
				if err != nil {
					t.Fatalf("remote %q: %v", qtext, err)
				}
				lj, rj := mustJSON(t, lresp), mustJSON(t, rresp)
				if lj != rj {
					t.Fatalf("mismatch epoch=%q chunked=%v %q:\nlocal  %s\nremote %s",
						epoch, chunked, qtext, lj, rj)
				}

				// The pre-parsed AST path must agree with the raw-text path.
				stmts, err := ParseQuery(qtext)
				if err != nil {
					t.Fatal(err)
				}
				sreq := req
				sreq.RawQuery = ""
				sreq.Statements = stmts
				lsresp, err := local.Query(ctx, sreq)
				if err != nil {
					t.Fatalf("local stmts %q: %v", qtext, err)
				}
				rsresp, err := remote.Query(ctx, sreq)
				if err != nil {
					t.Fatalf("remote stmts %q: %v", qtext, err)
				}
				if got := mustJSON(t, lsresp); got != lj {
					t.Fatalf("local AST path diverged for %q:\n%s\n%s", qtext, got, lj)
				}
				if got := mustJSON(t, rsresp); got != lj {
					t.Fatalf("remote AST path diverged for %q:\n%s\n%s", qtext, got, lj)
				}
			}
		}
	}
}

// TestStatementTextRoundTrip checks that Text() is a fixed point under
// parsing: parse(text) renders to the same text, and both execute to the
// same result. This is what lets the Client ship pre-built ASTs.
// sameStatement is statement equality up to the time zone the bounds are
// expressed in (the parser speaks UTC).
func sameStatement(a, b Statement) bool {
	a.Query.Start, a.Query.End = a.Query.Start.UTC(), a.Query.End.UTC()
	b.Query.Start, b.Query.End = b.Query.Start.UTC(), b.Query.End.UTC()
	return reflect.DeepEqual(a, b)
}

func TestStatementTextRoundTrip(t *testing.T) {
	store := seedQuerierStore(t)
	local := LocalQuerier{Store: store}
	ctx := context.Background()

	constructed := []Statement{
		SelectStatement(Query{Measurement: "cpu"}),
		SelectStatement(Query{
			Measurement: "cpu",
			Filter:      TagFilter{"hostname": "h1", "jobid": "42"},
			Start:       time.Unix(1000, 0),
			End:         time.Unix(1050, 0),
			Every:       10 * time.Second,
			Limit:       3,
		}, AggCol{Field: "value", Agg: AggMean}),
		SelectStatement(Query{Measurement: "cpu"},
			AggCol{Field: "value", Agg: AggPercentile, Pct: 95}),
		SelectStatement(Query{Measurement: "cpu", GroupByTags: []string{"hostname"}},
			AggCol{Field: "value"}, AggCol{Field: "ticks"}),
		SelectStatement(Query{Measurement: "cpu", GroupByTags: []string{"hostname"}},
			AggCol{Field: "value", Agg: AggMean}, AggCol{Field: "ticks", Agg: AggMax},
			AggCol{Field: "value", Agg: AggPercentile, Pct: 37.5}),
		SelectStatement(Query{Measurement: "cpu", Every: 20 * time.Second},
			AggCol{Field: "*", Agg: AggCount}, AggCol{Field: "value", Agg: AggLast}),
		SelectStatement(Query{Measurement: "cpu"}, AggCol{Field: "*"}, AggCol{Field: "note"}),
		SelectStatement(Query{Measurement: "cpu", Every: 1500 * time.Millisecond},
			AggCol{Field: "value", Agg: AggMean}),
		ShowMeasurementsStatement(),
		ShowFieldKeysStatement("cpu"),
		ShowTagValuesStatement("", "hostname"),
		ShowTagValuesStatement("cpu", "jobid"),
	}
	// GROUP BY time() prints whole seconds as seconds, anything finer in ns.
	for i, want := range map[int]string{1: "GROUP BY time(10s)", 7: "GROUP BY time(1500000000ns)"} {
		if text := constructed[i].Text(); !strings.Contains(text, want) {
			t.Fatalf("%q lacks %q", text, want)
		}
	}
	for _, st := range constructed {
		text := st.Text()
		reparsed, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("reparse %q: %v", text, err)
		}
		if len(reparsed) != 1 {
			t.Fatalf("%q parsed to %d statements", text, len(reparsed))
		}
		if got := reparsed[0].Text(); got != text {
			t.Fatalf("text not a fixed point: %q -> %q", text, got)
		}
		if !sameStatement(reparsed[0], st) {
			t.Fatalf("%q reparsed to %+v, built from %+v", text, reparsed[0], st)
		}
		orig, err := local.Query(ctx, Request{Database: "lms", Statements: []Statement{st}})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := local.Query(ctx, Request{Database: "lms", Statements: reparsed})
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, orig) != mustJSON(t, rt) {
			t.Fatalf("round-trip changed results of %q", text)
		}
	}

	// Identifiers and string values outside the bare alphabet survive via
	// quoting.
	db := store.CreateDatabase("lms")
	if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"weird meas",
		map[string]string{"host name": "it's h1&co"},
		map[string]lineproto.Value{"v": lineproto.Float(1)},
		time.Unix(1000, 0),
	)}); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		`nvme"0\disk`,
		map[string]string{"hostname": "h1"},
		map[string]lineproto.Value{"v": lineproto.Float(2)},
		time.Unix(1000, 0),
	)}); err != nil {
		t.Fatal(err)
	}
	for _, quoted := range []Statement{
		SelectStatement(Query{Measurement: `nvme"0\disk`}, AggCol{Field: "v"}),
		SelectStatement(Query{Measurement: `nvme"0\disk`},
			AggCol{Field: "v", Agg: AggMax}, AggCol{Field: `no such "field"`, Agg: AggCount}),
		ShowFieldKeysStatement(`nvme"0\disk`),
	} {
		reparsed, err := ParseQuery(quoted.Text())
		if err != nil {
			t.Fatalf("reparse %q: %v", quoted.Text(), err)
		}
		if got := reparsed[0].Text(); got != quoted.Text() {
			t.Fatalf("escaped ident not a fixed point: %q -> %q", quoted.Text(), got)
		}
		resp, err := local.Query(ctx, Request{Database: "lms", Statements: reparsed})
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Err(); err != nil {
			t.Fatalf("%q: %v", quoted.Text(), err)
		}
		if len(resp.Results[0].Series) != 1 {
			t.Fatalf("%q lost the series: %+v", quoted.Text(), resp.Results)
		}
	}

	st := SelectStatement(Query{
		Measurement: "weird meas",
		Filter:      TagFilter{"host name": "it's h1&co"},
	}, AggCol{Field: "v"})
	reparsed, err := ParseQuery(st.Text())
	if err != nil {
		t.Fatalf("reparse %q: %v", st.Text(), err)
	}
	resp, err := local.Query(ctx, Request{Database: "lms", Statements: reparsed})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Err(); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results[0].Series) != 1 || len(resp.Results[0].Series[0].Values) != 1 {
		t.Fatalf("quoted round-trip lost the row: %+v", resp.Results)
	}
}

// TestQueryHTTPErrorPaths covers the handler's rejection paths: bad
// method, bad epoch, parse errors, missing q.
func TestQueryHTTPErrorPaths(t *testing.T) {
	store := seedQuerierStore(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()

	check := func(method, rawquery string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+"/query?"+rawquery, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s /query?%s: status %d, want %d", method, rawquery, resp.StatusCode, wantStatus)
		}
	}
	check(http.MethodPut, "db=lms&q=SHOW+MEASUREMENTS", http.StatusMethodNotAllowed)
	check(http.MethodDelete, "db=lms&q=SHOW+MEASUREMENTS", http.StatusMethodNotAllowed)
	check(http.MethodGet, "db=lms&q=SHOW+MEASUREMENTS&epoch=parsec", http.StatusBadRequest)
	check(http.MethodGet, "db=lms&q=NOT+A+STATEMENT", http.StatusBadRequest)
	check(http.MethodGet, "db=lms", http.StatusBadRequest)
	check(http.MethodGet, "db=lms&q=SHOW+MEASUREMENTS&epoch=ms", http.StatusOK)
}

// TestSelectContextCancellation checks that a cancelled context stops the
// read path: before the snapshot, between aggregation tasks, and through
// the querier without poisoning the result cache.
func TestSelectContextCancellation(t *testing.T) {
	store := seedQuerierStore(t)
	db := store.DB("lms")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	q := Query{Measurement: "cpu", GroupByTags: []string{"hostname"}, Cols: []AggCol{{Field: "value", Agg: AggMean}}}
	if _, err := db.SelectContext(ctx, q); err != context.Canceled {
		t.Fatalf("SelectContext error %v, want context.Canceled", err)
	}
	// The cancelled attempt must not have cached anything bogus; a live
	// context sees real results.
	res, err := db.SelectContext(context.Background(), q)
	if err != nil || len(res) != 2 {
		t.Fatalf("post-cancel select: %v %v", res, err)
	}

	// Through the querier, cancellation comes back as an error rather than
	// an embedded statement failure.
	local := LocalQuerier{Store: store}
	if _, err := local.Query(ctx, Request{Database: "lms", RawQuery: "SELECT value FROM cpu"}); err != context.Canceled {
		t.Fatalf("local querier error %v, want context.Canceled", err)
	}

	// Cancelled between groups: the context turns to Canceled once the
	// first group's chunks are decoded. No later group is decoded, and the
	// next live call misses the cache rather than hitting a partial answer.
	db1 := newDBOpts("one", StoreOptions{ShardsPerDB: 1})
	for lo := 0; lo < 100; lo += 40 { // 40-row blocks: each one cuts the run before it, the second cut merges
		var pts []lineproto.Point
		for _, h := range []string{"a", "b", "c"} {
			for i := lo; i < min(lo+40, 100); i++ {
				pts = append(pts, lineproto.NewPoint(
					"m",
					map[string]string{"h": h},
					map[string]lineproto.Value{"v": lineproto.Float(float64(i))},
					time.Unix(int64(i), 0),
				))
			}
		}
		if err := db1.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := runLayout(db1), "m h=a: 80c 20h\nm h=b: 80c 20h\nm h=c: 80c 20h"; got != want {
		t.Fatalf("fixture layout:\n%s\nwant\n%s", got, want)
	}
	q1 := Query{Measurement: "m", GroupByTags: []string{"h"}, Cols: []AggCol{{Field: "v", Agg: AggSum}}}
	prof := &selectProf{}
	if _, err := db1.SelectContext(cancelOnDecode{withProf(bg, prof), prof}, q1); err != context.Canceled {
		t.Fatalf("between-groups cancellation: error %v, want context.Canceled", err)
	}
	first := &selectProf{}
	qa := q1
	qa.Filter = TagFilter{"h": "a"}
	if _, err := db1.SelectContext(withProf(bg, first), qa); err != nil {
		t.Fatal(err)
	}
	if first.ChunksDecoded == 0 || prof.ChunksDecoded != first.ChunksDecoded || prof.HeadsDecoded != first.HeadsDecoded {
		t.Fatalf("cancelled query decoded %d chunks and %d heads, want the first group's %d and %d alone",
			prof.ChunksDecoded, prof.HeadsDecoded, first.ChunksDecoded, first.HeadsDecoded)
	}
	hits, misses := db1.QueryCacheStats()
	live := &selectProf{}
	res, err = db1.SelectContext(withProf(bg, live), q1)
	if err != nil || len(res) != 3 {
		t.Fatalf("post-cancel select: %v %v", res, err)
	}
	if h, m := db1.QueryCacheStats(); h != hits || m != misses+1 || live.CacheHit {
		t.Fatalf("post-cancel select: cache hits %d→%d, misses %d→%d; want a miss", hits, h, misses, m)
	}
	if live.ChunksDecoded != 3*first.ChunksDecoded || live.HeadsDecoded != 3*first.HeadsDecoded {
		t.Fatalf("live query decoded %d chunks and %d heads, want %d and %d",
			live.ChunksDecoded, live.HeadsDecoded, 3*first.ChunksDecoded, 3*first.HeadsDecoded)
	}
}

// cancelOnDecode is a context whose Err turns to context.Canceled once the
// query profiled by prof has decoded a chunk or a head.
type cancelOnDecode struct {
	context.Context
	prof *selectProf
}

func (c cancelOnDecode) Err() error {
	if c.prof.ChunksDecoded+c.prof.HeadsDecoded > 0 {
		return context.Canceled
	}
	return nil
}

// TestClientRetriesTransientFailures checks the backoff loop: 5xx and
// connection-level failures are retried, 4xx is not, MaxRetries<0 disables
// retrying.
func TestClientRetriesTransientFailures(t *testing.T) {
	store := seedQuerierStore(t)
	inner := NewHandler(store)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "try later", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Database: "lms", RetryBackoff: time.Millisecond}
	resp, err := c.Query(context.Background(), Request{RawQuery: "SHOW MEASUREMENTS"})
	if err != nil {
		t.Fatalf("query after retries: %v", err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results %+v", resp.Results)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}

	// Retries disabled: the first 503 is final.
	calls.Store(0)
	cNo := &Client{BaseURL: srv.URL, Database: "lms", MaxRetries: -1}
	if _, err := cNo.Query(context.Background(), Request{RawQuery: "SHOW MEASUREMENTS"}); err == nil {
		t.Fatal("expected error without retries")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1", n)
	}

	// 4xx is the caller's fault and is not retried.
	calls.Store(0)
	var badCalls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer bad.Close()
	cBad := &Client{BaseURL: bad.URL, Database: "lms", RetryBackoff: time.Millisecond}
	if _, err := cBad.Query(context.Background(), Request{RawQuery: "SHOW MEASUREMENTS"}); err == nil {
		t.Fatal("expected 4xx error")
	}
	if n := badCalls.Load(); n != 1 {
		t.Fatalf("4xx retried: %d calls", n)
	}
}

// TestHandlerChunkedStreaming checks the wire shape of chunked=true: one
// JSON document per statement, which the stream reader merges back.
func TestHandlerChunkedStreaming(t *testing.T) {
	store := seedQuerierStore(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?db=lms&chunked=true&q=" +
		"SHOW+MEASUREMENTS%3BSELECT+mean%28value%29+FROM+cpu")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	docs := 0
	for dec.More() {
		var chunk Response
		if err := dec.Decode(&chunk); err != nil {
			t.Fatal(err)
		}
		if len(chunk.Results) != 1 {
			t.Fatalf("chunk carries %d results", len(chunk.Results))
		}
		docs++
	}
	if docs != 2 {
		t.Fatalf("%d chunk documents, want 2", docs)
	}
}

// TestQueryStringsHelper covers the metadata helper the dashboard agent
// and the standalone mains use for discovery.
func TestQueryStringsHelper(t *testing.T) {
	store := seedQuerierStore(t)
	local := LocalQuerier{Store: store}
	ctx := context.Background()
	meas, err := QueryStrings(ctx, local, "lms", ShowMeasurementsStatement(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(meas, ",") != "cpu,events,likwid_mem_dp" {
		t.Fatalf("measurements %v", meas)
	}
	hosts, err := QueryStrings(ctx, local, "lms", ShowTagValuesStatement("", "hostname"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(hosts, ",") != "h1,h2" {
		t.Fatalf("hosts %v", hosts)
	}
	if _, err := QueryStrings(ctx, local, "ghostdb", ShowFieldKeysStatement("cpu"), 0); err == nil {
		t.Fatal("missing database accepted")
	}
}
