package main

import (
	"math"
	"testing"
)

// Every workload, shrunk, for one second through the in-process assembly
// and the whole oracle: no child processes, but the same generator,
// loops, reference answers and checks as a real run.
func TestSmokeEveryWorkloadThroughTheOracle(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			s.sources, s.histCycles, s.pool = 16, 6, 64
			if s.perPreload > s.sources {
				s.perPreload = 400
			}
			in, err := newInputs(s, 1)
			if err != nil {
				t.Fatal(err)
			}
			st, err := assemble(s, t.TempDir(), assembleOpts{rings: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.closeAll()
			if err := prepare(in.g, st, in.bodies); err != nil {
				t.Fatal(err)
			}
			m := &measurements{}
			r := newRunner(in, st, m)
			defer r.close()
			dbBefore, err := scrapeEach(st.nodes)
			if err != nil {
				t.Fatal(err)
			}
			routerBefore, err := scrape(st.router)
			if err != nil {
				t.Fatal(err)
			}
			r.measure(1)
			if err := r.finish(dbBefore, routerBefore); err != nil {
				t.Fatal(err)
			}
			if m.verdict.failed != 0 {
				t.Errorf("%d of %d checks failed: %v", m.verdict.failed, m.checks, m.notes)
			}
			for name, p := range map[string]phase{"write closed": m.wClosed, "write open": m.wOpen, "read closed": m.qClosed, "read open": m.qOpen} {
				if p.n == 0 {
					t.Errorf("%s phase sent nothing", name)
				}
			}
			if got := m.dbDelta.sum("lms_ingest_points_total", ""); got < float64(m.ackedPoints-int64(in.history.points)) {
				t.Errorf("servers counted %v ingested points, generator had %d acknowledged", got, m.ackedPoints-int64(in.history.points))
			}
			vals := endToEnd(m)
			for _, name := range []string{"write_points_per_s", "write_p50_ms", "loadgen.query_per_s", "query_p50_ms", "resident_bytes_per_point"} {
				if v := vals[name].v; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
		})
	}
}

// The traced assembly records the span chain of the issue: request ->
// router -> cluster write -> replica writes, and door -> cluster query.
func TestTracedAssemblyRecordsTheSpanChain(t *testing.T) {
	s, _ := findWorkload("collector-batch")
	s.sources, s.histCycles, s.pool = 16, 6, 32
	in, err := newInputs(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var v verdict
	if _, err := driveAssembly(in, t.TempDir(), assembleOpts{rings: true, tracer: tr}, secs(0.3), &v); err != nil {
		t.Fatal(err)
	}
	if v.failed != 0 {
		t.Fatalf("%d failed: %v", v.failed, v.notes)
	}
	count := map[string]int{}
	for _, sp := range tr.spans {
		count[sp.Name]++
		if sp.Op == "" || sp.EndNS < sp.StartNS {
			t.Fatalf("bad span %+v", sp)
		}
	}
	for _, name := range []string{spanRequest, spanRouter, spanClusterW, spanServeWrite, spanServeQuery, spanClusterQ} {
		if count[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
	m := spanMetrics(tr, s.perWrite*s.linesPerCycle())
	if got := m["cluster.peer_requests_per_batch"].v; got < 2 || got > 3 {
		t.Errorf("peer requests per batch = %v, want 2..3 (R=2 over 3 nodes)", got)
	}
	if got := m["cluster.peer_bytes_per_point"].v; got <= 0 {
		t.Errorf("peer bytes per point = %v", got)
	}
}
