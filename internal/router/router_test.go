package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/pubsub"
	"repro/internal/tsdb"
)

func fixedNow() time.Time { return time.Unix(1000, 0).UTC() }

type env struct {
	store  *tsdb.Store
	db     *tsdb.DB
	router *Router
	srv    *httptest.Server
}

func newEnv(t *testing.T, mutate func(*Config)) *env {
	t.Helper()
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	cfg := Config{Primary: LocalSink{DB: db}, Now: fixedNow}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r)
	t.Cleanup(srv.Close)
	return &env{store: store, db: db, router: r, srv: srv}
}

func (e *env) post(t *testing.T, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(e.srv.URL+path, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func (e *env) startJob(t *testing.T, sig JobSignal) {
	t.Helper()
	body, _ := json.Marshal(sig)
	resp, err := http.Post(e.srv.URL+"/api/job/start", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("job start status %d", resp.StatusCode)
	}
}

func (e *env) endJob(t *testing.T, id string) {
	t.Helper()
	body, _ := json.Marshal(JobSignal{JobID: id})
	resp, err := http.Post(e.srv.URL+"/api/job/end", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("job end status %d", resp.StatusCode)
	}
}

func TestRouterRequiresPrimary(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing primary accepted")
	}
}

func TestWriteForwardsUntagged(t *testing.T) {
	e := newEnv(t, nil)
	resp := e.post(t, "/write", "cpu,hostname=h1 value=0.5 100\n")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res, err := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("res %+v", res)
	}
	rec, fwd, drop := e.router.Stats()
	if rec != 1 || fwd != 1 || drop != 0 {
		t.Fatalf("stats %d %d %d", rec, fwd, drop)
	}
}

func TestJobTagEnrichment(t *testing.T) {
	e := newEnv(t, nil)
	e.startJob(t, JobSignal{
		JobID: "42.master", User: "alice",
		Nodes: []string{"h1", "h2"},
		Tags:  map[string]string{"queue": "batch"},
	})
	e.post(t, "/write", "cpu,hostname=h1 value=1 100\ncpu,hostname=h3 value=2 100\n")
	// h1 is in the job: tagged. h3 is not: untouched.
	res, _ := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu", Filter: tsdb.TagFilter{"jobid": "42.master"}})
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("tagged rows %+v", res)
	}
	if res[0].Rows[0].Values[0].FloatVal() != 1 {
		t.Fatal("wrong point tagged")
	}
	res, _ = e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu", Filter: tsdb.TagFilter{"hostname": "h3"}})
	found := false
	for _, s := range res {
		for range s.Rows {
			found = true
		}
	}
	if !found {
		t.Fatal("untagged point lost")
	}
	// Enrichment includes username and custom tags.
	res, _ = e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu",
		Filter: tsdb.TagFilter{"username": "alice", "queue": "batch"}})
	if len(res) != 1 {
		t.Fatalf("custom tags %+v", res)
	}
}

func TestJobEndStopsEnrichment(t *testing.T) {
	e := newEnv(t, nil)
	e.startJob(t, JobSignal{JobID: "1", User: "bob", Nodes: []string{"h1"}})
	e.post(t, "/write", "cpu,hostname=h1 value=1 100\n")
	e.endJob(t, "1")
	e.post(t, "/write", "cpu,hostname=h1 value=2 200\n")
	res, _ := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu", Filter: tsdb.TagFilter{"jobid": "1"}})
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("rows tagged after job end: %+v", res)
	}
	if n := len(e.router.jobs.hosts); n != 0 {
		t.Fatalf("%d hosts still carry job tags", n)
	}
}

func TestExplicitTagsWin(t *testing.T) {
	e := newEnv(t, nil)
	e.startJob(t, JobSignal{JobID: "7", Nodes: []string{"h1"}})
	// A point already carrying a jobid (e.g. from libusermetric with custom
	// default tags) keeps it.
	e.post(t, "/write", "app,hostname=h1,jobid=custom value=1 100\n")
	res, _ := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "app", Filter: tsdb.TagFilter{"jobid": "custom"}})
	if len(res) != 1 {
		t.Fatalf("%+v", res)
	}
}

func TestJobSignalsStoredAsEvents(t *testing.T) {
	e := newEnv(t, nil)
	e.startJob(t, JobSignal{JobID: "9", User: "carol", Nodes: []string{"h1", "h2"}})
	e.endJob(t, "9")
	res, err := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "events", GroupByTags: []string{"type"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("event series %+v", res)
	}
	kinds := map[string]string{}
	for _, s := range res {
		kinds[s.Tags["type"]] = s.Rows[0].Values[0].StringVal()
	}
	if !strings.Contains(kinds["jobstart"], "jobstart job 9 user carol nodes h1,h2") {
		t.Fatalf("start event %q", kinds["jobstart"])
	}
	if !strings.Contains(kinds["jobend"], "jobend job 9") {
		t.Fatalf("end event %q", kinds["jobend"])
	}
}

func TestPerUserDuplication(t *testing.T) {
	var userStore *tsdb.Store
	e := newEnv(t, func(cfg *Config) {
		userStore = tsdb.NewStore()
		cfg.UserSink = func(user string) Sink {
			return LocalSink{DB: userStore.CreateDatabase("user_" + user)}
		}
	})
	e.startJob(t, JobSignal{JobID: "3", User: "dave", Nodes: []string{"h1"}})
	e.post(t, "/write", "cpu,hostname=h1 value=1 100\ncpu,hostname=h9 value=9 100\n")
	udb := userStore.DB("user_dave")
	if udb == nil {
		t.Fatal("user db not created")
	}
	res, _ := udb.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu"})
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("user rows %+v", res)
	}
	// Primary got both points.
	if n := e.db.PointCount(); n != 3 { // 2 metrics + 1 start event
		t.Fatalf("primary points %d", n)
	}
	// Duplicated point carries the job tags.
	if res[0].Rows[0].Values[0].FloatVal() != 1 {
		t.Fatal("wrong point duplicated")
	}
}

// captureSink keeps the batches it is handed, maps and all.
type captureSink struct{ got [][]lineproto.Point }

func (c *captureSink) WritePoints(pts []lineproto.Point) error {
	c.got = append(c.got, pts)
	return nil
}

// TestEnrichmentCopiesOnlyTags: enrichment writes into a tag set of its
// own — the caller's batch never shows the job tags, however often it is
// ingested — and shares the fields it does not touch. Primary and per-user
// sinks both see the enriched tags, with the agent's own tags winning.
func TestEnrichmentCopiesOnlyTags(t *testing.T) {
	primary, user := &captureSink{}, &captureSink{}
	r, err := New(Config{Primary: primary, Now: fixedNow, UserSink: func(string) Sink { return user }})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JobStart(JobSignal{JobID: "7", User: "dave", Nodes: []string{"h1"}, Tags: map[string]string{"queue": "batch"}}); err != nil {
		t.Fatal(err)
	}
	primary.got = nil // the start event
	pts, err := lineproto.Parse([]byte("cpu,hostname=h1,queue=mine value=1 100\nmem,hostname=h9 used=2 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := r.IngestContext(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	}
	want := []lineproto.Tag{{Key: "hostname", Value: "h1"}, {Key: "queue", Value: "mine"}}
	if !reflect.DeepEqual(pts[0].Tags, want) {
		t.Fatalf("enrichment wrote into the caller's batch: %v", pts[0].Tags)
	}
	if len(primary.got) != 2 || len(user.got) != 2 {
		t.Fatalf("primary got %d batches, user sink %d, want 2 and 2", len(primary.got), len(user.got))
	}
	for _, batch := range [][]lineproto.Point{primary.got[0], primary.got[1], user.got[0], user.got[1]} {
		p := batch[0]
		if p.Tag("jobid") != "7" || p.Tag("username") != "dave" || p.Tag("queue") != "mine" {
			t.Fatalf("sink saw tags %v", p.Tags)
		}
		if &p.Fields[0] != &pts[0].Fields[0] { // shared with the parsed point, by design
			t.Fatal("enrichment copied the fields it never changes")
		}
	}
	if got := primary.got[0][1].Tags; !reflect.DeepEqual(got, []lineproto.Tag{{Key: "hostname", Value: "h9"}}) {
		t.Fatalf("a point of no job changed tags: %v", got)
	}
}

// TestEnrichWideThenNarrowIsLinear: the enrich arena is sized for the
// points left at a point's shape, but a wide point ahead of many narrow
// ones must not reserve its width for all of them. What enrichment
// allocates stays linear in the tags it writes: here a narrow point's
// slot in the batch and its four tags, about 220 bytes.
func TestEnrichWideThenNarrowIsLinear(t *testing.T) {
	const wide, narrow = 256, 10000
	primary := &captureSink{}
	r, err := New(Config{Primary: primary, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JobStart(JobSignal{JobID: "7", User: "dave", Nodes: []string{"h1"}, Tags: map[string]string{"queue": "batch"}}); err != nil {
		t.Fatal(err)
	}
	tags := map[string]string{"hostname": "h1"}
	for i := 0; i < wide; i++ {
		tags[fmt.Sprintf("t%03d", i)] = "v"
	}
	fields := map[string]lineproto.Value{"v": lineproto.Float(1)}
	pts := []lineproto.Point{lineproto.NewPoint("m", tags, fields, fixedNow())}
	for p := lineproto.NewPoint("m", map[string]string{"hostname": "h1"}, fields, fixedNow()); len(pts) <= narrow; {
		pts = append(pts, p)
	}
	ingest := func() {
		primary.got = nil
		if err := r.IngestContext(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	}
	ingest()
	if got := primary.got[0][narrow]; len(got.Tags) != 4 || got.Tag("jobid") != "7" {
		t.Fatalf("narrow point enriched to %v", got.Tags)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest()
	runtime.ReadMemStats(&after)
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(pts))
	if perPoint > 512 {
		t.Fatalf("enrichment allocates %.0f bytes per point, want <= 512", perPoint)
	}
	t.Logf("%.0f bytes allocated per point", perPoint)
}

func TestUserSinkFailureIsBestEffort(t *testing.T) {
	e := newEnv(t, func(cfg *Config) {
		cfg.UserSink = func(user string) Sink { return failSink{} }
	})
	e.startJob(t, JobSignal{JobID: "3", User: "erin", Nodes: []string{"h1"}})
	resp := e.post(t, "/write", "cpu,hostname=h1 value=1 100\n")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_, fwd, drop := e.router.Stats()
	if fwd < 1 || drop != 1 {
		t.Fatalf("stats fwd=%d drop=%d", fwd, drop)
	}
}

type failSink struct{}

func (failSink) WritePoints([]lineproto.Point) error { return fmt.Errorf("boom") }

func TestPrimaryFailureIsReported(t *testing.T) {
	store := tsdb.NewStore()
	_ = store
	r, err := New(Config{Primary: failSink{}, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader("cpu value=1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestPublisherReceivesMetricsAndMeta(t *testing.T) {
	pub, err := pubsub.NewPublisher("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	e := newEnv(t, func(cfg *Config) { cfg.Publisher = pub })
	sub, err := pubsub.Dial(pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	_ = sub.Subscribe("")
	// Wait until subscription is active: retry the probe until delivered.
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
probeLoop:
	for {
		select {
		case <-tick.C:
			pub.Publish("probe", []byte("x"))
		case m := <-sub.Messages():
			if m.Topic == "probe" {
				break probeLoop
			}
		case <-deadline:
			t.Fatal("subscription inactive")
		}
	}
	e.startJob(t, JobSignal{JobID: "5", User: "f", Nodes: []string{"h1"}})
	e.post(t, "/write", "cpu,hostname=h1 value=1 100\n")
	var sawMeta, sawMetric bool
	timeout := time.After(5 * time.Second)
	for !(sawMeta && sawMetric) {
		select {
		case m := <-sub.Messages():
			switch {
			case m.Topic == "meta/jobstart":
				var job Job
				if err := json.Unmarshal(m.Payload, &job); err != nil || job.ID != "5" {
					t.Fatalf("meta payload %s: %v", m.Payload, err)
				}
				sawMeta = true
			case m.Topic == "metrics/cpu":
				pts, err := lineproto.Parse(m.Payload)
				if err != nil || len(pts) != 1 || pts[0].Tag("jobid") != "5" {
					t.Fatalf("metric payload %q: %v", m.Payload, err)
				}
				sawMetric = true
			case m.Topic == "probe":
				// leftover
			default:
				t.Fatalf("unexpected topic %q", m.Topic)
			}
		case <-timeout:
			t.Fatalf("missing messages: meta=%v metric=%v", sawMeta, sawMetric)
		}
	}
}

func TestJobsEndpoint(t *testing.T) {
	e := newEnv(t, nil)
	e.startJob(t, JobSignal{JobID: "a", User: "u1", Nodes: []string{"h1"}})
	e.startJob(t, JobSignal{JobID: "b", User: "u2", Nodes: []string{"h2", "h3"}})
	resp, err := http.Get(e.srv.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "a" || jobs[1].ID != "b" {
		t.Fatalf("jobs %+v", jobs)
	}
	if len(jobs[1].Nodes) != 2 {
		t.Fatalf("nodes %+v", jobs[1].Nodes)
	}
	// Single job endpoint.
	resp2, err := http.Get(e.srv.URL + "/api/job/a")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var job Job
	if err := json.NewDecoder(resp2.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.ID != "a" || job.User != "u1" || !job.End.IsZero() {
		t.Fatalf("job %+v", job)
	}
	// Finished jobs remain queryable.
	e.endJob(t, "a")
	resp3, err := http.Get(e.srv.URL + "/api/job/a")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.End.IsZero() {
		t.Fatal("ended job reported running")
	}
	resp4, _ := http.Get(e.srv.URL + "/api/job/ghost")
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status %d", resp4.StatusCode)
	}
}

func TestJobSignalValidation(t *testing.T) {
	e := newEnv(t, nil)
	cases := []struct {
		path, body string
		wantStatus int
	}{
		{"/api/job/start", `{}`, http.StatusBadRequest},            // no jobid
		{"/api/job/start", `{"jobid":"x"}`, http.StatusBadRequest}, // no nodes
		{"/api/job/start", `notjson`, http.StatusBadRequest},       // bad json
		{"/api/job/end", `{"jobid":"ghost"}`, http.StatusNotFound}, // unknown job
		{"/api/job/end", `{}`, http.StatusBadRequest},              // no jobid
		// A tag no store accepts would poison every write of the node.
		{"/api/job/start", `{"jobid":"7","nodes":["n1"],"tags":{"project":""}}`, http.StatusBadRequest},
		{"/api/job/start", `{"jobid":"8","nodes":["n1"],"tags":{"":"v"}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := e.post(t, c.path, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %q: status %d want %d", c.path, c.body, resp.StatusCode, c.wantStatus)
		}
	}
	// The refused signals registered nothing, so n1 still writes.
	if n := len(e.router.Jobs().Running()); n != 0 {
		t.Errorf("%d jobs running after refused signals", n)
	}
	if resp := e.post(t, "/write", "cpu,hostname=n1 value=1 100\n"); resp.StatusCode != http.StatusNoContent {
		t.Errorf("write from n1 after refused signals: status %d", resp.StatusCode)
	}
	// Duplicate start conflicts.
	e.startJob(t, JobSignal{JobID: "dup", Nodes: []string{"h1"}})
	resp := e.post(t, "/api/job/start", `{"jobid":"dup","nodes":["h1"]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status %d", resp.StatusCode)
	}
}

func TestWriteValidation(t *testing.T) {
	e := newEnv(t, nil)
	if resp := e.post(t, "/write", "garbage"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage status %d", resp.StatusCode)
	}
	resp, _ := http.Get(e.srv.URL + "/write")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp.StatusCode)
	}
	if resp := e.post(t, "/write", ""); resp.StatusCode != http.StatusNoContent {
		t.Errorf("empty body status %d", resp.StatusCode)
	}
}

// TestWritePrecision: the router's /write is an InfluxDB /write, so the
// precision parameter scales the body's timestamps exactly as lms-db's own
// door does — and an invalid or overflowing one is a 400, not a point
// stored in 1970.
func TestWritePrecision(t *testing.T) {
	e := newEnv(t, nil)
	stored := func(meas string) time.Time {
		t.Helper()
		res, err := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: meas})
		if err != nil || len(res) != 1 || len(res[0].Rows) != 1 {
			t.Fatalf("%s: %+v, %v", meas, res, err)
		}
		return res[0].Rows[0].Time
	}
	for _, c := range []struct {
		meas, precision string
		want            time.Time
	}{
		{"p_default", "", time.Unix(0, 1600000000)},
		{"p_ns", "ns", time.Unix(0, 1600000000)},
		{"p_ms", "ms", time.Unix(1600000, 0)},
		{"p_s", "s", time.Unix(1600000000, 0)},
	} {
		path := "/write"
		if c.precision != "" {
			path += "?precision=" + c.precision
		}
		if resp := e.post(t, path, c.meas+",hostname=h1 value=1 1600000000\n"); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("precision %q: status %d", c.precision, resp.StatusCode)
		}
		if got := stored(c.meas); !got.Equal(c.want) {
			t.Errorf("precision %q: stored at %v, want %v", c.precision, got.UTC(), c.want.UTC())
		}
	}
	received, _, _ := e.router.Stats()
	if resp := e.post(t, "/write?precision=fortnights", "bad,hostname=h1 value=1 1\n"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid precision: status %d, want 400", resp.StatusCode)
	}
	if resp := e.post(t, "/write?precision=h", "bad,hostname=h1 value=1 9000000000000000\n"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("timestamp overflowing at precision h: status %d, want 400", resp.StatusCode)
	}
	if got, _, _ := e.router.Stats(); got != received {
		t.Errorf("refused writes entered the pipeline: received %d -> %d", received, got)
	}
	if _, err := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "bad"}); err == nil {
		t.Error("a refused write was stored")
	}
}

func TestPing(t *testing.T) {
	e := newEnv(t, nil)
	resp, err := http.Get(e.srv.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSharedNodeJobStacking(t *testing.T) {
	r := NewJobRegistry(10)
	start := func(id, user string, nodes ...string) {
		t.Helper()
		if err := r.Start(&Job{ID: id, Nodes: nodes, Tags: map[string]string{"jobid": id, "username": user}}); err != nil {
			t.Fatal(err)
		}
	}
	start("1", "a", "h1")
	start("2", "b", "h1", "h2")
	if job := r.Lookup("h1"); job == nil || job.Tags["jobid"] != "2" {
		t.Fatalf("latest job should win: %+v", job)
	}
	if _, err := r.End("2", fixedNow()); err != nil {
		t.Fatal(err)
	}
	if job := r.Lookup("h1"); job == nil || job.Tags["jobid"] != "1" {
		t.Fatalf("earlier job should be restored: %+v", job)
	}
	if r.Lookup("h2") != nil {
		t.Fatal("ended job's other node should miss")
	}
	if _, err := r.End("1", fixedNow()); err != nil {
		t.Fatal(err)
	}
	if r.Lookup("h1") != nil {
		t.Fatal("empty host should miss")
	}
	// Ending an unknown job changes nothing.
	if _, err := r.End("ghost", fixedNow()); err == nil {
		t.Fatal("ending an unknown job accepted")
	}
	// A second start of a running job is refused and keeps its tags.
	start("x", "a", "h2")
	if err := r.Start(&Job{ID: "x", Nodes: []string{"h2"}, Tags: map[string]string{"jobid": "x", "username": "b"}}); err == nil {
		t.Fatal("duplicate start accepted")
	}
	if job := r.Lookup("h2"); job.Tags["username"] != "a" || job.user != "a" {
		t.Fatalf("duplicate start changed tags: %+v", job)
	}
	if len(r.hosts) != 1 {
		t.Fatalf("hosts %d", len(r.hosts))
	}
}

// TestTagStoreCopiesTags: mutating a signal's tags after JobStart does not
// change the enrichment of its nodes' points — the job registry, the
// router's tag store, holds its own copy.
func TestTagStoreCopiesTags(t *testing.T) {
	e := newEnv(t, nil)
	sig := JobSignal{JobID: "1", Nodes: []string{"h1"}, Tags: map[string]string{"project": "p1"}}
	if err := e.router.JobStart(sig); err != nil {
		t.Fatal(err)
	}
	sig.Tags["project"] = "mutated"
	sig.Tags["extra"] = "x"
	e.post(t, "/write", "cpu,hostname=h1 value=1 100\n")
	for _, c := range []struct {
		filter tsdb.TagFilter
		want   int
	}{
		{tsdb.TagFilter{"project": "p1"}, 1},
		{tsdb.TagFilter{"project": "mutated"}, 0},
		{tsdb.TagFilter{"extra": "x"}, 0},
	} {
		res, _ := e.db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu", Filter: c.filter})
		if len(res) != c.want {
			t.Fatalf("%v: %d series, want %d: enrichment aliases the signal's tags", c.filter, len(res), c.want)
		}
	}
}

func TestJobRegistryHistoryBound(t *testing.T) {
	r := NewJobRegistry(3)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := r.Start(&Job{ID: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.End(id, fixedNow()); err != nil {
			t.Fatal(err)
		}
	}
	h := r.history
	if len(h) != 3 || h[0].ID != "j2" || h[2].ID != "j4" {
		t.Fatalf("history %+v", h)
	}
	if _, err := r.End("ghost", fixedNow()); err == nil {
		t.Fatal("ending unknown job accepted")
	}
	if _, ok := r.Get("j4"); !ok {
		t.Fatal("finished job not found")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("phantom job found")
	}
}

func TestConcurrentIngestAndSignals(t *testing.T) {
	e := newEnv(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				host := fmt.Sprintf("h%d", g)
				pts := []lineproto.Point{lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": host},
					map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
					time.Unix(int64(i), 0),
				)}
				if err := e.router.IngestContext(context.Background(), pts); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("job-%d-%d", g, i)
				_ = e.router.JobStart(JobSignal{JobID: id, Nodes: []string{fmt.Sprintf("h%d", g)}})
				_ = e.router.JobEnd(id)
			}
		}(g)
	}
	wg.Wait()
	rec, fwd, _ := e.router.Stats()
	if rec != 200 {
		t.Fatalf("received %d", rec)
	}
	if fwd < 200 {
		t.Fatalf("forwarded %d", fwd)
	}
}
