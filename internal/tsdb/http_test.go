package tsdb

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
)

func newTestServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	store := NewStore()
	srv := httptest.NewServer(NewHandler(store))
	t.Cleanup(srv.Close)
	return store, srv
}

func TestHTTPPing(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPWriteAndQuery(t *testing.T) {
	store, srv := newTestServer(t)
	body := "cpu,hostname=h1 value=0.5 1000000000\ncpu,hostname=h2 value=0.7 2000000000\n"
	resp, err := http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("write status %d", resp.StatusCode)
	}
	if store.DB("lms") == nil {
		t.Fatal("auto-create failed")
	}
	if n := store.DB("lms").PointCount(); n != 2 {
		t.Fatalf("points %d", n)
	}

	c := &Client{BaseURL: srv.URL, Database: "lms"}
	results, err := queryText(c, "SELECT value FROM cpu GROUP BY hostname")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Series) != 2 {
		t.Fatalf("results %+v", results)
	}
}

// queryText runs raw InfluxQL through c.Query against the client's
// default database, surfacing the first embedded statement error.
func queryText(c *Client, q string) ([]ExecResult, error) {
	resp, err := c.Query(context.Background(), Request{RawQuery: q})
	if err != nil {
		return nil, err
	}
	return resp.Results, resp.Err()
}

func TestHTTPWritePrecision(t *testing.T) {
	store, srv := newTestServer(t)
	// Timestamp in seconds precision.
	resp, err := http.Post(srv.URL+"/write?db=lms&precision=s", "text/plain",
		strings.NewReader("cpu value=1 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	res, err := store.DB("lms").SelectContext(bg, Query{Measurement: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Time.Unix(); got != 100 {
		t.Fatalf("time %v", res[0].Rows[0].Time)
	}
}

func TestHTTPWriteErrors(t *testing.T) {
	_, srv := newTestServer(t)
	// Missing db.
	resp, _ := http.Post(srv.URL+"/write", "text/plain", strings.NewReader("cpu value=1"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing db: status %d", resp.StatusCode)
	}
	// Bad body.
	resp, _ = http.Post(srv.URL+"/write?db=lms", "text/plain", strings.NewReader("broken"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d", resp.StatusCode)
	}
	// Bad precision.
	resp, _ = http.Post(srv.URL+"/write?db=lms&precision=parsec", "text/plain", strings.NewReader("cpu value=1"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad precision: status %d", resp.StatusCode)
	}
	// GET not allowed.
	resp, _ = http.Get(srv.URL + "/write?db=lms")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET write: status %d", resp.StatusCode)
	}
}

func TestHTTPWriteNoAutoCreate(t *testing.T) {
	store := NewStore()
	h := NewHandler(store)
	h.AutoCreate = false
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, _ := http.Post(srv.URL+"/write?db=ghost", "text/plain", strings.NewReader("cpu value=1"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := http.Get(srv.URL + "/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q: status %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/query?q=NONSENSE")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad q: status %d", resp.StatusCode)
	}
}

func TestHTTPQueryPost(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/query", "application/x-www-form-urlencoded",
		strings.NewReader("q=CREATE+DATABASE+x&db="))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestClientWritePoints(t *testing.T) {
	store, srv := newTestServer(t)
	c := &Client{BaseURL: srv.URL, Database: "lms"}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	pts := []lineproto.Point{
		{Measurement: "m", Fields: map[string]lineproto.Value{"v": lineproto.Float(1)}, Time: time.Unix(0, 1)},
		{Measurement: "m", Fields: map[string]lineproto.Value{"v": lineproto.Float(2)}, Time: time.Unix(0, 2)},
	}
	if err := c.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if n := store.DB("lms").PointCount(); n != 2 {
		t.Fatalf("points %d", n)
	}
	// Query error propagation.
	if _, err := queryText(c, "SELECT value FROM m WHERE"); err == nil {
		t.Fatal("expected query error")
	}
}

func TestClientQueryEscaping(t *testing.T) {
	store, srv := newTestServer(t)
	db := store.CreateDatabase("lms")
	_ = db.WriteBatchContext(bg, []lineproto.Point{{
		Measurement: "cpu",
		Tags:        map[string]string{"hostname": "node 01"},
		Fields:      map[string]lineproto.Value{"value": lineproto.Float(3)},
		Time:        time.Unix(0, 5),
	}})
	c := &Client{BaseURL: srv.URL, Database: "lms"}
	res, err := queryText(c, "SELECT value FROM cpu WHERE hostname = 'node 01'")
	if err != nil {
		t.Fatal(err)
	}
	// Client-decoded numbers arrive as json.Number so int64 payloads and
	// nanosecond epochs keep full precision.
	if len(res[0].Series) != 1 {
		t.Fatalf("res %+v", res)
	}
	if v, err := res[0].Series[0].Values[0][1].(json.Number).Float64(); err != nil || v != 3 {
		t.Fatalf("res %+v", res)
	}
}

func TestParseTimestampHelper(t *testing.T) {
	ts, err := ParseTimestamp("2017-08-04T10:00:00Z")
	if err != nil || ts.Year() != 2017 {
		t.Fatalf("%v %v", ts, err)
	}
	ts, err = ParseTimestamp(float64(1500))
	if err != nil || ts.UnixNano() != 1500 {
		t.Fatalf("%v %v", ts, err)
	}
	if _, err := ParseTimestamp(struct{}{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseTimestamp("notatime"); err == nil {
		t.Fatal("expected error")
	}
}

func TestHTTPEndToEndEventAnnotations(t *testing.T) {
	// Router-style event write followed by dashboard-style query, the
	// "signals are forwarded into the database to be used later as
	// annotations" flow of Sect. III-B.
	_, srv := newTestServer(t)
	c := &Client{BaseURL: srv.URL, Database: "lms"}
	ev := lineproto.Point{
		Measurement: "events",
		Tags:        map[string]string{"jobid": "42", "type": "jobstart"},
		Fields:      map[string]lineproto.Value{"text": lineproto.String("job 42 started on h1,h2")},
		Time:        time.Unix(100, 0),
	}
	if err := c.WritePoints([]lineproto.Point{ev}); err != nil {
		t.Fatal(err)
	}
	res, err := queryText(c, "SELECT text FROM events WHERE jobid = '42'")
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].Series[0].Values[0][1].(string)
	if got != "job 42 started on h1,h2" {
		t.Fatalf("event text %q", got)
	}
}
