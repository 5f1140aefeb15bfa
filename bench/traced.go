package main

// The traced run (-trace 1): every per-layer metric of BENCHMARK.json.
// Three sources feed it. The end-to-end run on the real binaries gives
// the counters only they have (/metrics deltas, resident bytes). The
// in-process assembly of the same topology, driven one op at a time
// with the benchmark's spans on, gives the self and wait times between
// layers; run again with spans off, and with the program's own trace
// rings off, it gives the two overheads. The isolated calls give each
// layer's cost alone.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

func runTraced(e *env, in *inputs, seconds float64) (*measurements, map[string]value, error) {
	m, err := runEndToEnd(e, in, seconds, 1, crashRepeats)
	if err != nil {
		return nil, nil, err
	}
	vals := loadgenMetrics(m)
	for k, v := range counterMetrics(m) {
		vals[k] = v
	}
	vals["loadgen.build_s"] = value{e.buildS, 1}

	scratch := filepath.Join(e.outDir, fmt.Sprintf("traced-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	side := secs(seconds / 10)
	tr := newTracer()
	spansOn, err := driveAssembly(in, filepath.Join(scratch, "a"), assembleOpts{rings: true, tracer: tr}, side, &m.verdict)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(e.outDir, "trace-"+in.g.name+".json")
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	fmt.Printf("spans: %s\n", path)
	spansOff, err := driveAssembly(in, filepath.Join(scratch, "b"), assembleOpts{rings: true}, side, &m.verdict)
	if err != nil {
		return nil, nil, err
	}
	ringsOff, err := driveAssembly(in, filepath.Join(scratch, "c"), assembleOpts{}, side, &m.verdict)
	if err != nil {
		return nil, nil, err
	}
	pct := func(with, without float64) float64 { return (with - without) / without * 100 }
	vals["loadgen.trace_overhead_pct"] = value{pct(spansOn, spansOff), 0}
	vals["obs.trace_ring_overhead_pct"] = value{pct(spansOff, ringsOff), 0}
	for k, v := range spanMetrics(tr, m.pointsPerWrite) {
		vals[k] = v
	}

	iso, err := isolated(in, filepath.Join(scratch, "iso"), secs(seconds/60))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range iso {
		vals[k] = v
	}
	return m, vals, nil
}

// counterMetrics reads the program's own counters over the measured
// phases of the end-to-end run.
func counterMetrics(m *measurements) map[string]value {
	db, rt := m.dbDelta, m.routerDelta
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := db.sum("lms_db_query_cache_hits_total", ""), db.sum("lms_db_query_cache_misses_total", "")
	return map[string]value{
		"router.dropped_points":    {rt.sum("lms_router_dropped_points_total", ""), 0},
		"router.shed_requests":     {rt.sum("lms_router_shed_requests_total", ""), 0},
		"cluster.read_failovers":   {db.sum("lms_cluster_read_failovers_total", ""), 0},
		"cluster.quorum_failures":  {rt.sum("lms_cluster_quorum_failures_total", ""), 0},
		"cluster.hints_pending":    {m.hintsPending, 0},
		"durable.fsync_us":         {ratio(db.sum("lms_wal_fsync_seconds_sum", ""), db.sum("lms_wal_fsync_seconds_count", "")) * 1e6, int(db.sum("lms_wal_fsync_seconds_count", ""))},
		"durable.fsyncs_per_batch": {ratio(db.sum("lms_wal_fsync_seconds_count", ""), db.sum("lms_ingest_batches_total", "")), 0},
		"durable.checkpoints":      {m.minCheckpoints, 0},
		"tsdb.cache_hit_ratio":     {ratio(hits, hits+misses), int(hits + misses)},
		"tsdb.cache_hit_designed":  {ratio(float64(m.repeats), float64(m.selects)), m.selects},
		"tsdb.compressed_share":    {ratio(m.compressedBytes, m.residentBytes), 0},
	}
}

// driveAssembly builds the in-process topology, loads the history and
// sends writes, then reads, one at a time for `side` each. It returns
// the median write latency plus the median read latency, in
// milliseconds: the cost of one of each; with a tracer in opts
// every request is a loadgen.request span whose op id the layers below
// pick up from X-Lms-Trace.
func driveAssembly(in *inputs, dir string, o assembleOpts, side time.Duration, v *verdict) (float64, error) {
	g := in.g
	st, err := assemble(g.spec, dir, o)
	if err != nil {
		return 0, err
	}
	defer st.closeAll()
	if err := prepare(g, st, in.bodies); err != nil {
		return 0, err
	}
	c := newConn()
	defer c.close()
	model := g.newSummary()
	model.add(in.history)
	var lat, wlat []float64
	var buf []byte
	one := func(do func(op string) bool) {
		op := nextOp()
		t0 := time.Now()
		ok := do(op)
		t1 := time.Now()
		o.tracer.record(spanRequest, "", op, t0, t1, 0)
		lat = append(lat, ms(t1.Sub(t0)))
		v.checks++
		if !ok {
			v.fail("assembly op %s failed", op)
		}
	}
	for i, end := 0, time.Now().Add(side); time.Now().Before(end); i++ {
		var sum summary
		buf, sum = g.writeBody(buf[:0], i)
		one(func(op string) bool {
			ok := postBody(c, st.router, buf, op)
			if ok {
				model.add(sum)
			}
			return ok
		})
	}
	wlat, lat = lat, nil
	for i, end := 0, time.Now().Add(side); time.Now().Before(end); i++ {
		idx := i % len(in.pool)
		one(func(op string) bool {
			status, body, err := c.do(http.MethodGet, queryURL(st.nodes[i%len(st.nodes)], in.pool[idx]), nil, http.Header{traceHeader: {op}})
			return err == nil && status == http.StatusOK && bodyHash(body) == in.refs[idx]
		})
	}
	checkModel(c, st.nodes, g.schema, model, v)
	return median(wlat) + median(lat), nil
}

// spanMetrics turns the spans of the traced assembly run into the
// between-layer figures.
func spanMetrics(t *tracer, pointsPerWrite int) map[string]value {
	mean := func(bs []breakdown, f func(breakdown) float64) float64 {
		if len(bs) == 0 {
			return 0
		}
		total := 0.0
		for _, b := range bs {
			total += f(b)
		}
		return total / float64(len(bs))
	}
	w := t.breakdowns(spanClusterW)
	q := t.breakdowns(spanClusterQ)
	return map[string]value{
		"cluster.write_self_us_per_batch": {mean(w, func(b breakdown) float64 { return float64(selfNS(b.parent, b.children)) / 1e3 }), len(w)},
		"cluster.write_wait_us_per_batch": {mean(w, func(b breakdown) float64 { return float64(coveredNS(b.parent, b.children)) / 1e3 }), len(w)},
		"cluster.peer_requests_per_batch": {mean(w, func(b breakdown) float64 { return float64(len(b.children)) }), len(w)},
		"cluster.peer_bytes_per_point": {mean(w, func(b breakdown) float64 {
			bytes := int64(0)
			for _, c := range b.children {
				bytes += c.Bytes
			}
			return float64(bytes) / float64(pointsPerWrite)
		}), len(w)},
		"cluster.query_self_us": {mean(q, func(b breakdown) float64 { return float64(selfNS(b.parent, b.children)) / 1e3 }), len(q)},
	}
}
