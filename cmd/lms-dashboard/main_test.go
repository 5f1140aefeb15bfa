package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

func jobPoints(t *testing.T) []lineproto.Point {
	t.Helper()
	start, err := time.Parse(time.RFC3339, "2017-08-04T10:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	var pts []lineproto.Point
	for i := 0; i < 20; i++ {
		ts := start.Add(time.Duration(i) * time.Minute)
		for _, node := range []string{"node01", "node02"} {
			pts = append(pts,
				lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{"percent": lineproto.Float(88)},
					ts,
				),
				lineproto.NewPoint(
					"likwid_mem_dp",
					map[string]string{"hostname": node, "jobid": "42"},
					map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(2100)},
					ts,
				))
		}
	}
	return pts
}

// startRemoteDB serves the points the way a separately started lms-db
// would: the tsdb HTTP handler behind a real listener.
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

// TestRunRemoteMatchesOffline: the generated dashboard JSON for the same
// job window must be byte-identical whether the agent loads a dump
// in-process or queries a remote lms-db over HTTP.
func TestRunRemoteMatchesOffline(t *testing.T) {
	pts := jobPoints(t)
	window := []string{"-start", "2017-08-04T10:00:00Z", "-end", "2017-08-04T10:20:00Z"}

	var offline strings.Builder
	args := append([]string{"-data", writeDump(t, pts), "-job", "42", "-user", "alice"}, window...)
	if err := run(args, &offline); err != nil {
		t.Fatalf("offline: %v", err)
	}

	var remote strings.Builder
	args = append([]string{"-db-url", startRemoteDB(t, pts), "-job", "42", "-user", "alice"}, window...)
	if err := run(args, &remote); err != nil {
		t.Fatalf("remote: %v", err)
	}

	if offline.String() != remote.String() {
		t.Fatalf("remote dashboard diverged from offline:\n--- offline ---\n%s\n--- remote ---\n%s",
			offline.String(), remote.String())
	}
	var d struct {
		Title string `json:"title"`
		Rows  []struct {
			Title string `json:"title"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(remote.String()), &d); err != nil {
		t.Fatalf("output is not dashboard JSON: %v", err)
	}
	if d.Title != "Job 42" || len(d.Rows) < 2 {
		t.Fatalf("unexpected dashboard %+v", d)
	}
}

// TestRunRemoteRender drives the full remote read path including panel
// rendering: every panel query goes over HTTP to the lms-db handler.
func TestRunRemoteRender(t *testing.T) {
	pts := jobPoints(t)
	var out strings.Builder
	err := run([]string{
		"-db-url", startRemoteDB(t, pts), "-job", "42", "-render",
		"-start", "2017-08-04T10:00:00Z", "-end", "2017-08-04T10:20:00Z",
	}, &out)
	if err != nil {
		t.Fatalf("remote render: %v", err)
	}
	for _, want := range []string{"### Job 42 ###", "-- cpu --", "-- likwid_mem_dp --"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, out.String())
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
