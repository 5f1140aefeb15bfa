package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
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
		pts[i] = lineproto.Point{
			Measurement: fmt.Sprintf("metric%d", i%8),
			Tags: map[string]string{
				"hostname": "h017", "cluster": "emmy", "rack": "r07", "type": "node", "unit": fmt.Sprint(i / 8),
				"jobid": "4711.master", "username": "user2", "queue": "batch", "project": "p1",
			},
			Fields: map[string]lineproto.Value{
				"a": lineproto.Float(247.5), "b": lineproto.Float(0.125), "c": lineproto.Int(int64(i)), "d": lineproto.Float(91),
			},
			Time: ts.Add(time.Duration(i) * time.Microsecond),
		}
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
	if err := c.Ensure(ctx, "lms"); err != nil {
		t.Fatal(err)
	}
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
