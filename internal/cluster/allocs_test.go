package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/router"
)

// stubPeers answers every peer request in-process — 204 to a write, one
// empty result to a query — so a test counts the coordinator's own work
// and none of a server's.
type stubPeers struct{}

func (stubPeers) RoundTrip(r *http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusNoContent, Body: http.NoBody, Request: r}
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = r.Body.Close()
	}
	if r.URL.Path == "/query" {
		resp.StatusCode = http.StatusOK
		resp.Body = io.NopCloser(strings.NewReader(`{"results":[{"statement_id":0}]}`))
	}
	return resp, nil
}

// collectorBatch is one host cycle as the router hands it to the ring: 100
// points over 8 measurements, 9 tags (5 of them enrichment) and 4 fields.
func collectorBatch() []lineproto.Point {
	ts := time.Unix(1501804800, 0).UTC()
	pts := make([]lineproto.Point, 100)
	for i := range pts {
		pts[i] = lineproto.NewPoint(
			fmt.Sprintf("metric%d", i%8),
			map[string]string{
				"hostname": "h017", "cluster": "emmy", "rack": "r07", "type": "node", "unit": fmt.Sprint(i / 8),
				"jobid": "4711.master", "username": "user2", "queue": "batch", "project": "p1",
			},
			map[string]lineproto.Value{
				"a": lineproto.Float(247.5), "b": lineproto.Float(0.125), "c": lineproto.Int(int64(i)), "d": lineproto.Float(91),
			},
			ts.Add(time.Duration(i)*time.Microsecond),
		)
	}
	return pts
}

// TestClusterWriteAllocs is the allocation gate of the replicated write
// (ROADMAP item 2): what Cluster.writeDB itself allocates to split one
// collector batch over the ring and put every share on the wire. The
// measured figure is 117, most of it three http.Requests; text shares
// (lineproto.Encode per owner, a joined owner key per point) cost 668.
func TestClusterWriteAllocs(t *testing.T) {
	c, err := New(Config{
		Peers:       []string{"http://n1:8086", "http://n2:8086", "http://n3:8086"},
		Replication: 2,
		HTTPClient:  &http.Client{Transport: stubPeers{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	pts := collectorBatch()
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.writeDB(ctx, "lms", pts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per 100-point batch", allocs)
	if allocs > 150 {
		t.Fatalf("writeDB allocates %.0f times per 100-point batch, want <= 150", allocs)
	}
}

// routerCycle is a router in front of a 3-node R=2 ring of stubPeers, with
// a job running on host h017, and one 100-line cycle of that host as its
// agent posts it: 8 measurements, 5 tags of its own and 4 fields; the job
// adds 4 more tags.
func routerCycle(t testing.TB) (*router.Router, []byte) {
	c, err := New(Config{
		Peers:       []string{"http://n1:8086", "http://n2:8086", "http://n3:8086"},
		Replication: 2,
		HTTPClient:  &http.Client{Transport: stubPeers{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rt, err := router.New(router.Config{Primary: c.SinkFor("lms")})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.JobStart(router.JobSignal{JobID: "4711.master", User: "user2", Nodes: []string{"h017"},
		Tags: map[string]string{"queue": "batch", "project": "p1"}}); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for i := 0; i < 100; i++ {
		body = fmt.Appendf(body, "metric%d,cluster=emmy,hostname=h017,rack=r07,type=node,unit=%d a=247.5,b=0.125,c=%di,d=91 %d\n",
			i%8, i/8, i, 1501804800000000000+int64(i)*1000)
	}
	return rt, body
}

// postCycle posts body to the router's /write and fails unless it is
// acknowledged.
func postCycle(t testing.TB, rt *router.Router, body []byte) {
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/write", bytes.NewReader(body)))
	if w.Code != http.StatusNoContent {
		t.Fatalf("write answered %d: %s", w.Code, w.Body)
	}
}

// TestRouterWriteAllocs is the allocation gate of the router's whole write
// path: one agent cycle through Router.ServeHTTP — parse, enrich, ring
// split, one frame per owner — into the cluster sink, the requests to the
// replicas included. Points carry their tags and fields as key-sorted
// slices, so parse and enrich fill a few arenas per body and the frames
// are copies; the measured figure is 1.4 per point (10.4 with maps).
func TestRouterWriteAllocs(t *testing.T) {
	rt, body := routerCycle(t)
	perPoint := testing.AllocsPerRun(50, func() { postCycle(t, rt, body) }) / 100
	t.Logf("%.2f allocs per point", perPoint)
	if perPoint > 3 {
		t.Fatalf("a router write allocates %.2f times per point, want <= 3", perPoint)
	}
}

// BenchmarkRouterWrite times routerCycle's cycle through the router into
// the ring, per point.
func BenchmarkRouterWrite(b *testing.B) {
	rt, body := routerCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postCycle(b, rt, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*100), "ns/point")
}
