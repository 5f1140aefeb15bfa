package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// jobPoints builds a small two-node job data set covering several
// evaluation metrics.
func jobPoints(t *testing.T) []lineproto.Point {
	t.Helper()
	start, err := time.Parse(time.RFC3339, "2017-08-04T10:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	var pts []lineproto.Point
	for i := 0; i < 30; i++ {
		ts := start.Add(time.Duration(i) * time.Minute)
		for ni, node := range []string{"node01", "node02"} {
			pts = append(pts,
				lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{"percent": lineproto.Float(90 + float64(ni))},
					ts,
				),
				lineproto.NewPoint(
					"likwid_mem_dp",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{
						"dp_mflop_s":                lineproto.Float(2000 + float64(10*ni)),
						"memory_bandwidth_mbytes_s": lineproto.Float(9000),
						"ipc":                       lineproto.Float(1.4),
					},
					ts,
				))
		}
	}
	return pts
}

// startRemoteDB stands in for a separately running lms-db: the same
// tsdb.Handler the binary serves, wired over real HTTP via httptest.
func startRemoteDB(t *testing.T, pts []lineproto.Point) string {
	t.Helper()
	store := tsdb.NewStore()
	srv := httptest.NewServer(tsdb.NewHandler(store))
	t.Cleanup(srv.Close)
	c := &tsdb.Client{BaseURL: srv.URL, Database: "lms"}
	if err := c.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	return srv.URL
}

func writeDump(t *testing.T, pts []lineproto.Point) string {
	t.Helper()
	body, err := lineproto.Encode(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.lp")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRemoteMatchesOffline is the deployment-split acceptance test:
// lms-analyze -db-url against a separately served lms-db handler must
// produce a byte-identical report to the offline -data mode over the same
// points and window.
func TestRunRemoteMatchesOffline(t *testing.T) {
	pts := jobPoints(t)
	window := []string{"-start", "2017-08-04T10:00:00Z", "-end", "2017-08-04T10:30:00Z"}

	var offline strings.Builder
	args := append([]string{"-data", writeDump(t, pts), "-job", "42", "-user", "alice"}, window...)
	if err := run(args, &offline); err != nil {
		t.Fatalf("offline: %v", err)
	}

	var remote strings.Builder
	args = append([]string{"-db-url", startRemoteDB(t, pts), "-db", "lms", "-job", "42", "-user", "alice"}, window...)
	if err := run(args, &remote); err != nil {
		t.Fatalf("remote: %v", err)
	}

	if offline.String() != remote.String() {
		t.Fatalf("remote report diverged from offline:\n--- offline ---\n%s\n--- remote ---\n%s",
			offline.String(), remote.String())
	}
	for _, want := range []string{"Job 42", "node01", "node02", "CPU load", "DP FP rate"} {
		if !strings.Contains(remote.String(), want) {
			t.Errorf("report missing %q:\n%s", want, remote.String())
		}
	}
}

func TestRunModeFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-job", "42"}, &out); err == nil {
		t.Error("neither -data nor -db-url accepted")
	}
	if err := run([]string{"-job", "42", "-data", "x.lp", "-db-url", "http://h:1"}, &out); err == nil {
		t.Error("both -data and -db-url accepted")
	}
	if err := run([]string{"-data", "x.lp"}, &out); err == nil {
		t.Error("missing -job accepted")
	}
}

func TestRunRemoteNodeDiscovery(t *testing.T) {
	pts := jobPoints(t)
	// A shared cluster database also holds another job's data; discovery
	// must scope to jobid 42 and not pull node99 into the report.
	pts = append(pts, lineproto.NewPoint(
		"cpu",
		map[string]string{"hostname": "node99", "jobid": "7"},
		map[string]lineproto.Value{"percent": lineproto.Float(50)},
		pts[0].Time,
	))
	var out strings.Builder
	// No -nodes: hostnames are discovered through the query API over HTTP.
	err := run([]string{
		"-db-url", startRemoteDB(t, pts), "-job", "42",
		"-start", "2017-08-04T10:00:00Z", "-end", "2017-08-04T10:30:00Z",
	}, &out)
	if err != nil {
		t.Fatalf("remote run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "on 2 nodes") {
		t.Fatalf("node discovery failed:\n%s", out.String())
	}
	if strings.Contains(out.String(), "node99") {
		t.Fatalf("foreign job's node leaked into the report:\n%s", out.String())
	}
}
