package analysis

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// TestDiscoverJobNodesScopedByJob: against a shared multi-job database only
// the hostnames of series tagged with the job id come back — not every
// host the database has ever seen.
func TestDiscoverJobNodesScopedByJob(t *testing.T) {
	db, ev := newEvaluator()
	ts := time.Unix(1000, 0)
	write := func(meas, host, jobid string) {
		t.Helper()
		tags := map[string]string{"hostname": host}
		if jobid != "" {
			tags["jobid"] = jobid
		}
		if err := db.WriteBatchContext(context.Background(), []lineproto.Point{{
			Measurement: meas,
			Tags:        tags,
			Fields:      map[string]lineproto.Value{"v": lineproto.Float(1)},
			Time:        ts,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	write("cpu", "node01", "42")
	write("likwid_mem_dp", "node02", "42")
	write("cpu", "node99", "7") // another job on the same cluster
	write("memory", "node50", "")

	nodes, err := DiscoverJobNodes(context.Background(), ev.Querier, "lms", "42")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(nodes, ",") != "node01,node02" {
		t.Fatalf("nodes %v, want [node01 node02]", nodes)
	}
}

// TestEvaluateRemoteFailureIsAnError: an unreachable remote database must
// fail the evaluation instead of producing an all-NaN "clean" report with
// exit status 0.
func TestEvaluateRemoteFailureIsAnError(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // guaranteed-refused address
	ev := &Evaluator{
		Querier:  &tsdb.Client{BaseURL: srv.URL, Database: "lms", MaxRetries: -1},
		Database: "lms",
	}
	_, err := ev.Evaluate(JobMeta{
		ID: "42", Nodes: []string{"h1"},
		Start: time.Unix(0, 0), End: time.Unix(100, 0),
	})
	if err == nil {
		t.Fatal("unreachable database produced a report")
	}
}

// TestDiscoverJobNodesFallback: a dump recorded without job enrichment has
// no jobid tags anywhere; discovery falls back to every hostname.
func TestDiscoverJobNodesFallback(t *testing.T) {
	db, ev := newEvaluator()
	for _, host := range []string{"h2", "h1"} {
		if err := db.WriteBatchContext(context.Background(), []lineproto.Point{{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": host},
			Fields:      map[string]lineproto.Value{"v": lineproto.Float(1)},
			Time:        time.Unix(1000, 0),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := DiscoverJobNodes(context.Background(), ev.Querier, "lms", "42")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(nodes, ",") != "h1,h2" {
		t.Fatalf("fallback nodes %v", nodes)
	}
}
