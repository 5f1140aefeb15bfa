package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceRecordsSpans(t *testing.T) {
	ring := NewTraceRing(4)
	tr := ring.StartTrace("req", "abcd1234abcd1234")
	if tr == nil {
		t.Fatal("enabled ring returned nil trace")
	}
	if tr.ID() != "abcd1234abcd1234" {
		t.Fatalf("trace did not keep the upstream id: %q", tr.ID())
	}
	sp := tr.Start("phase.one").Attr("db", "lms").AttrInt("points", 42)
	time.Sleep(time.Millisecond)
	sp.End()
	open := tr.Start("phase.two") // left open: Finish must close it
	_ = open
	tr.Finish()
	tr.Finish() // idempotent

	d, ok := ring.Find("abcd1234abcd1234")
	if !ok {
		t.Fatal("finished trace not in ring")
	}
	if d.Name != "req" || d.DurationNS <= 0 {
		t.Fatalf("bad trace data: %+v", d)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(d.Spans))
	}
	one := d.Spans[0]
	if one.Name != "phase.one" || one.DurNS <= 0 {
		t.Fatalf("bad first span: %+v", one)
	}
	if one.Attr("db") != "lms" || one.Attr("points") != "42" || one.Attr("missing") != "" {
		t.Fatalf("bad attrs: %+v", one.Attrs)
	}
	if two := d.Spans[1]; two.DurNS < 0 {
		t.Fatalf("open span not closed at finish: %+v", two)
	}
	// Spans sort by start offset.
	if d.Spans[0].StartNS > d.Spans[1].StartNS {
		t.Fatalf("spans out of order: %+v", d.Spans)
	}
}

func TestTraceFreshIDAndRingOverwrite(t *testing.T) {
	ring := NewTraceRing(2)
	var ids []string
	for i := 0; i < 3; i++ {
		tr := ring.StartTrace("req", "")
		if len(tr.ID()) != 16 {
			t.Fatalf("fresh id not 16 hex digits: %q", tr.ID())
		}
		ids = append(ids, tr.ID())
		tr.Finish()
	}
	snap := ring.Snapshot(0, 0)
	if len(snap) != 2 {
		t.Fatalf("ring of 2 holds %d traces", len(snap))
	}
	// Newest first; the oldest trace fell out.
	if snap[0].ID != ids[2] || snap[1].ID != ids[1] {
		t.Fatalf("snapshot order wrong: %v vs written %v", []string{snap[0].ID, snap[1].ID}, ids)
	}
	if _, ok := ring.Find(ids[0]); ok {
		t.Fatal("overwritten trace still findable")
	}
}

func TestTraceSnapshotFilters(t *testing.T) {
	ring := NewTraceRing(8)
	for i := 0; i < 4; i++ {
		ring.push(TraceData{ID: "t", DurationNS: int64(i) * int64(time.Millisecond)})
	}
	if got := ring.Snapshot(2*time.Millisecond, 0); len(got) != 2 {
		t.Fatalf("min_dur filter kept %d traces", len(got))
	}
	if got := ring.Snapshot(0, 3); len(got) != 3 {
		t.Fatalf("limit kept %d traces", len(got))
	}
}

func TestTraceServeHTTP(t *testing.T) {
	ring := NewTraceRing(4)
	tr := ring.StartTrace("req", "")
	tr.Start("a").End()
	tr.Finish()

	rec := httptest.NewRecorder()
	ring.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_dur=0s&limit=10", nil))
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("bad response: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var got []TraceData
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != tr.ID() || len(got[0].Spans) != 1 {
		t.Fatalf("bad JSON payload: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	ring.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_dur=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min_dur accepted: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	ring.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("bad limit accepted: %d", rec.Code)
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	ring := NewTraceRing(1)
	tr := ring.StartTrace("req", "")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("bare context carries a trace")
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Fatal("attaching nil trace changed the context")
	}
}

// TestTraceDisabledIsFree pins the zero-cost-when-off contract: every
// operation the instrumented hot paths perform when tracing is disabled —
// StartTrace on a nil or disabled ring, span work on the resulting nil
// trace, TraceFrom on a context without a trace — must allocate nothing.
func TestTraceDisabledIsFree(t *testing.T) {
	var nilRing *TraceRing
	if nilRing.StartTrace("req", "") != nil {
		t.Fatal("nil ring handed out a trace")
	}
	if nilRing.Snapshot(0, 0) != nil {
		t.Fatal("nil ring snapshot not nil")
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		tr := nilRing.StartTrace("req", "")
		sp := tr.Start("phase").Attr("k", "v").AttrInt("n", 7)
		sp.End()
		tr.Finish()
		_ = TraceFrom(ctx).ID()
	}); allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
}

// TestDebugMux covers the -debug-addr listener surface: the pprof
// endpoints answer (the heap profile in particular — satellite smoke
// test) and /debug/traces is wired when a ring is present, absent when
// not.
func TestDebugMux(t *testing.T) {
	ring := NewTraceRing(2)
	ring.StartTrace("req", "feedfacefeedface").Finish()
	srv := httptest.NewServer(DebugMux(ring))
	defer srv.Close()

	for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/", "/debug/pprof/cmdline"} {
		rsp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, rsp.StatusCode)
		}
	}
	rsp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var got []TraceData
	if err := json.NewDecoder(rsp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "feedfacefeedface" {
		t.Fatalf("traces endpoint lost the trace: %+v", got)
	}

	bare := httptest.NewServer(DebugMux(nil))
	defer bare.Close()
	rsp2, err := bare.Client().Get(bare.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	rsp2.Body.Close()
	if rsp2.StatusCode != 404 {
		t.Fatalf("ringless mux serves /debug/traces: %d", rsp2.StatusCode)
	}
}
