package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/gmond"
	"repro/internal/hpm"
	"repro/internal/proc"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/usermetric"
	"repro/internal/workload"
)

// TestDistributedDeployment wires the components the way the cmd/ binaries
// deploy them — database server, router server, collector agent, gmond
// proxy and libusermetric all talking HTTP — and checks the complete data
// path of paper Fig. 1 without any in-process shortcuts.
func TestDistributedDeployment(t *testing.T) {
	// lms-db.
	store := tsdb.NewStore()
	dbSrv := httptest.NewServer(tsdb.NewHandler(store))
	defer dbSrv.Close()

	// lms-router, forwarding over HTTP with per-user duplication.
	rt, err := router.New(router.Config{
		Primary: &tsdb.Client{BaseURL: dbSrv.URL, Database: "lms"},
		UserSink: func(user string) router.Sink {
			return &tsdb.Client{BaseURL: dbSrv.URL, Database: "user_" + user}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	// Scheduler prolog: job start signal over HTTP.
	sig, _ := json.Marshal(router.JobSignal{
		JobID: "777", User: "erin", Nodes: []string{"node01"},
		Tags: map[string]string{"queue": "devel"},
	})
	resp, err := http.Post(rtSrv.URL+"/api/job/start", "application/json", bytes.NewReader(sig))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("job start status %d", resp.StatusCode)
	}

	// lms-collector: simulated node, HTTP push to the router.
	pstate, err := proc.NewState("node01", 4, 32*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := hpm.NewMachine(hpm.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1, BaseClockMHz: 2200})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewTriad(4, 1e9)
	for core := 0; core < 4; core++ {
		p := w.ProfileAt(1, core)
		if err := machine.SetRates(core, p.Rates(2200)); err != nil {
			t.Fatal(err)
		}
		if err := pstate.SetCPULoad(core, p.UserFrac, p.SysFrac); err != nil {
			t.Fatal(err)
		}
	}
	agent, err := collector.New(collector.Config{
		Hostname: "node01",
		Endpoint: rtSrv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	group, err := hpm.Builtin().Lookup("MEM_DP")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []collector.Plugin{
		&collector.CPUPlugin{FS: pstate},
		&collector.MemoryPlugin{FS: pstate},
		&collector.HPMPlugin{Machine: machine, Group: group},
	} {
		if err := agent.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	// Two collection cycles (first arms CPU rates and HPM session).
	if err := agent.CollectAndPush(time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	_ = pstate.Tick(60)
	_ = machine.Advance(60)
	if err := agent.CollectAndPush(time.Unix(160, 0)); err != nil {
		t.Fatal(err)
	}

	// gmond + pulling proxy, pushing over the router's HTTP /write.
	gm := gmond.NewServer("testcluster")
	gm.Update("node01", time.Unix(150, 0), []gmond.Metric{{Name: "pkts_in", Value: 42}})
	if err := gm.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	rc := &tsdb.Client{BaseURL: rtSrv.URL, Database: "lms"}
	proxy := &gmond.Proxy{
		Addr:   gm.Addr(),
		Ingest: rc.WritePoints,
		Now:    func() time.Time { return time.Unix(155, 0) },
	}
	if n, err := proxy.Pull(); err != nil || n != 1 {
		t.Fatalf("proxy pull %d %v", n, err)
	}

	// libusermetric over HTTP through the router.
	um, err := usermetric.New(usermetric.Config{
		Endpoint:      rtSrv.URL,
		DefaultTags:   map[string]string{"hostname": "node01"},
		FlushInterval: -1,
		Now:           func() time.Time { return time.Unix(170, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = um.Metric("pressure", 5.9, nil)
	_ = um.Event("phase 2", nil)
	if err := um.Close(); err != nil {
		t.Fatal(err)
	}

	// Scheduler epilog.
	end, _ := json.Marshal(router.JobSignal{JobID: "777"})
	resp, err = http.Post(rtSrv.URL+"/api/job/end", "application/json", bytes.NewReader(end))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Everything must have landed in the primary DB, tagged with the job.
	db := store.DB("lms")
	if db == nil {
		t.Fatal("primary db missing")
	}
	for _, meas := range []string{"cpu", "memory", "likwid_mem_dp", "ganglia_pkts_in", "pressure", "events"} {
		res, err := db.SelectContext(context.Background(), tsdb.Query{Measurement: meas})
		if err != nil || len(res) == 0 {
			t.Fatalf("measurement %q missing: %v", meas, err)
		}
	}
	// Tagged with job id (collector data from the second cycle).
	res, err := db.SelectContext(context.Background(), tsdb.Query{Measurement: "likwid_mem_dp", Filter: tsdb.TagFilter{"jobid": "777", "queue": "devel"}})
	if err != nil || len(res) == 0 {
		t.Fatalf("job tagging failed: %v %v", res, err)
	}
	// Per-user duplication over HTTP.
	udb := store.DB("user_erin")
	if udb == nil || udb.PointCount() == 0 {
		t.Fatal("user db missing or empty")
	}
	// The evaluation works on the HTTP-fed database too.
	// Point the evaluator at the database *server*, exactly as a
	// standalone lms-analyze -db-url would.
	ev := &analysis.Evaluator{Querier: &tsdb.Client{BaseURL: dbSrv.URL}, Database: "lms"}
	rep, err := ev.Evaluate(analysis.JobMeta{
		ID: "777", User: "erin", Nodes: []string{"node01"},
		Start: time.Unix(90, 0), End: time.Unix(200, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row.Stats.N == 0 {
		t.Fatalf("evaluation empty: %+v", row)
	}
}
