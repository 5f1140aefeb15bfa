package main

// The one file that calls the program's Go API. The end-to-end runs know
// only binaries, flags and HTTP; everything that imports repro/internal
// is here, so an API change in the program is absorbed in one place:
//
//   - reference: the single in-process node whose answers the oracle
//     compares read replies with;
//   - assemble: the same topology as the child processes, built from the
//     packages in this process, with the benchmark's spans around every
//     layer boundary (the traced run and the smoke tests drive it);
//   - isolated: the per-layer calls of bench/README.md's table, each
//     timed alone on the workload's own inputs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

// loadHistory replays the set-up traffic into db the way the stack sees
// it: job starts, history through the router's enrichment, job ends.
func loadHistory(g *gen, bodies [][]byte, db *tsdb.DB) error {
	rt, err := router.New(router.Config{Primary: router.LocalSink{DB: db}})
	if err != nil {
		return err
	}
	sigs := g.jobSignals()
	for _, sig := range sigs {
		if err := rt.JobStart(router.JobSignal{JobID: sig.JobID, User: sig.Username, Nodes: sig.Nodes, Tags: sig.Tags}); err != nil {
			return err
		}
	}
	for _, b := range bodies {
		if err := rt.IngestBatch(b); err != nil {
			return err
		}
	}
	if g.jobsEnd {
		for _, sig := range sigs {
			if err := rt.JobEnd(sig.JobID); err != nil {
				return err
			}
		}
	}
	return nil
}

// answer renders a statement's reply exactly as the /query handler does.
func answer(store *tsdb.Store, st statement) ([]byte, error) {
	resp, err := tsdb.LocalQuerier{Store: store}.Query(context.Background(),
		tsdb.Request{Database: database, RawQuery: st.text, Epoch: st.epoch})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// reference computes the hash every pooled statement's reply must have,
// on a single node fed through an in-process router, so that its points
// carry exactly the job tags the real router adds.
func reference(g *gen, bodies [][]byte, pool []statement) ([]uint64, error) {
	store := tsdb.NewStore()
	if err := loadHistory(g, bodies, store.CreateDatabase(database)); err != nil {
		return nil, fmt.Errorf("reference node: %w", err)
	}
	refs := make([]uint64, len(pool))
	for i, st := range pool {
		body, err := answer(store, st)
		if err != nil {
			return nil, fmt.Errorf("reference answer to %q: %w", st.text, err)
		}
		refs[i] = bodyHash(body)
	}
	return refs, nil
}

// ---------------------------------------------------------------------
// In-process assembly.

type opKey struct{}

// opOf returns the op id the benchmark's middleware put on the request.
func opOf(ctx context.Context) string {
	op, _ := ctx.Value(opKey{}).(string)
	return op
}

// spanned wraps a handler: it takes the op id from X-Lms-Trace, makes it
// visible to the wrappers further in, and records one span per request.
func spanned(t *tracer, h http.Handler, name func(*http.Request) (span, parent string)) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sname, parent := name(r)
		op := r.Header.Get(obs.TraceHeader)
		if sname == "" || op == "" {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r = r.WithContext(context.WithValue(r.Context(), opKey{}, op))
		r.Body = body
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(sname, parent, op, start, time.Now(), body.n)
	})
}

// countingBody counts the request body bytes a handler reads (a peer
// request is chunked, so its Content-Length says nothing).
type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

func routerSpan(r *http.Request) (string, string) {
	if r.URL.Path == "/write" {
		return spanRouter, spanRequest
	}
	return "", ""
}

// dbSpan names a request at an lms-db: writes sit under the cluster's
// write (or, single-node, directly under the router); a query arriving
// with local=1 is the owner's half of a coordinated query.
func dbSpan(clustered bool) func(*http.Request) (string, string) {
	return func(r *http.Request) (string, string) {
		switch r.URL.Path {
		case "/write":
			if clustered {
				return spanServeWrite, spanClusterW
			}
			return spanServeWrite, spanRouter
		case "/query":
			if r.URL.Query().Get("local") == "1" {
				return spanServeQuery, spanClusterQ
			}
			return spanServeQuery, spanRequest
		}
		return "", ""
	}
}

// spannedSink records cluster.write around the replicated sink.
type spannedSink struct {
	t     *tracer
	inner router.ContextSink
}

func (s spannedSink) WritePoints(pts []lineproto.Point) error {
	return s.inner.WritePoints(pts)
}

func (s spannedSink) WritePointsContext(ctx context.Context, pts []lineproto.Point) error {
	start := time.Now()
	err := s.inner.WritePointsContext(ctx, pts)
	s.t.record(spanClusterW, spanRouter, opOf(ctx), start, time.Now(), 0)
	return err
}

// spannedQuerier records cluster.query around the coordinator.
type spannedQuerier struct {
	t     *tracer
	inner tsdb.Querier
}

func (q spannedQuerier) Query(ctx context.Context, req tsdb.Request) (tsdb.Response, error) {
	start := time.Now()
	resp, err := q.inner.Query(ctx, req)
	q.t.record(spanClusterQ, spanServeQuery, opOf(ctx), start, time.Now(), 0)
	return resp, err
}

// assembly options: which of the program's own trace rings exist (the
// shipped default is 256 entries each) and whether the benchmark records
// spans.
type assembleOpts struct {
	rings  bool
	tracer *tracer
}

// serve starts an HTTP server on a loopback listener opened beforehand
// (the peer list needs every URL before any node exists).
func serve(ln net.Listener, h http.Handler) func() {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on close
		close(done)
	}()
	return func() {
		_ = srv.Close()
		<-done
	}
}

// assemble builds the workload's topology inside this process: durable
// stores under dir behind loopback listeners, each node coordinating
// queries over the ring, and a router in front.
func assemble(s spec, dir string, o assembleOpts) (*stack, error) {
	st := &stack{}
	ok := false
	defer func() {
		if !ok {
			st.closeAll()
		}
	}()
	var lns []net.Listener
	for i := 0; i <= s.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.closeFns = append(st.closeFns, func() { ln.Close() })
		lns = append(lns, ln)
		u := "http://" + ln.Addr().String()
		if i < s.nodes {
			st.nodes = append(st.nodes, u)
		} else {
			st.router = u
		}
	}
	clustered := s.nodes > 1
	for i, u := range st.nodes {
		store, err := tsdb.OpenStore(tsdb.StoreOptions{
			CompressAfter: s.compressAfter,
			Durability: tsdb.Durability{
				Dir: filepath.Join(dir, fmt.Sprintf("db%d", i)), Fsync: durable.FsyncPerBatch,
				SegmentBytes: s.segmentBytes, CheckpointBytes: s.checkpointBytes,
			},
		})
		if err != nil {
			return nil, err
		}
		st.closeFns = append(st.closeFns, func() { _ = store.Close() })
		if _, err := store.OpenDatabase(database); err != nil {
			return nil, err
		}
		if o.rings {
			store.SetTraces(obs.NewTraceRing(256))
		}
		h := tsdb.NewHandler(store)
		if clustered {
			clu, err := cluster.New(cluster.Config{Peers: st.nodes, Self: u, SelfStore: store, Replication: 2})
			if err != nil {
				return nil, err
			}
			st.closeFns = append(st.closeFns, func() { _ = clu.Close() })
			clu.RegisterMetrics(store.Metrics().Registry())
			h.Distributed = clu.Querier()
			if o.tracer != nil {
				h.Distributed = spannedQuerier{o.tracer, clu.Querier()}
			}
		}
		st.closeFns = append(st.closeFns, serve(lns[i], spanned(o.tracer, h, dbSpan(clustered))))
	}

	cfg := router.Config{}
	if o.rings {
		cfg.Traces = obs.NewTraceRing(256)
	}
	var clu *cluster.Cluster
	if clustered {
		var err error
		clu, err = cluster.New(cluster.Config{Peers: st.nodes, Replication: 2, WriteQuorum: 1, HintsDir: filepath.Join(dir, "hints")})
		if err != nil {
			return nil, err
		}
		st.closeFns = append(st.closeFns, func() { _ = clu.Close() })
		cfg.Primary = clu.SinkFor(database)
		if o.tracer != nil {
			cfg.Primary = spannedSink{o.tracer, clu.SinkFor(database).(router.ContextSink)}
		}
	} else {
		cfg.Primary = &tsdb.Client{BaseURL: st.nodes[0], Database: database}
	}
	rt, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	if clu != nil {
		clu.RegisterMetrics(rt.Metrics())
	}
	st.closeFns = append(st.closeFns, serve(lns[s.nodes], spanned(o.tracer, rt, routerSpan)))
	ok = true
	return st, nil
}

// closeAll runs the close functions newest first: servers stop before
// the clusters and stores behind them.
func (st *stack) closeAll() {
	for i := len(st.closeFns) - 1; i >= 0; i-- {
		st.closeFns[i]()
	}
	st.closeFns = nil
}

var opCounter atomic.Uint64

// nextOp mints an op id in the shape of the program's own trace ids.
func nextOp() string { return fmt.Sprintf("%016x", opCounter.Add(1)) }

// ---------------------------------------------------------------------
// Isolated per-layer calls.

// timed runs fn over and over for about budget and returns the median
// nanoseconds per call over five equal slices of that time, with the
// mean heap allocations per call. fn receives the call's number.
func timed(budget time.Duration, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	calls := 0
	for slice := 0; slice < 5; slice++ {
		start := time.Now()
		n := 0
		for time.Since(start) < budget/5 {
			fn(calls)
			calls++
			n++
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// keepSink is the sink a router hands its enriched batch to when nothing
// behind the router is to be measured.
type keepSink struct{ last []lineproto.Point }

func (k *keepSink) WritePoints(pts []lineproto.Point) error { k.last = pts; return nil }

// recorder is a minimal http.ResponseWriter for calling a handler
// without a socket.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func request(method, target string, body []byte) *http.Request {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		panic(err) // the targets are the benchmark's own constants
	}
	return req
}

// isolated times each layer's call alone, on this workload's own bodies
// and statements. budget is the time each call gets. dir is scratch
// space for the durable ones.
func isolated(in *inputs, dir string, budget time.Duration) (map[string]value, error) {
	g := in.g
	out := map[string]value{}
	ctx := context.Background()

	// The measured write bodies, a few hundred of them, and their points.
	const nBodies = 256
	bodies := make([][]byte, nBodies)
	parsed := make([][]lineproto.Point, nBodies)
	pointsPerBody := float64(g.perWrite * g.linesPerCycle())
	for i := range bodies {
		bodies[i], _ = g.writeBody(nil, i)
		pts, err := lineproto.Parse(bodies[i])
		if err != nil {
			return nil, fmt.Errorf("generated body does not parse: %w", err)
		}
		parsed[i] = pts
	}

	// lineproto.parse
	ns, allocs := timed(budget, func(i int) { _, _ = lineproto.Parse(bodies[i%nBodies]) })
	out["lineproto.parse_ns_per_point"] = value{ns / pointsPerBody, 0}
	out["lineproto.parse_allocs_per_point"] = value{allocs / pointsPerBody, 0}

	// router.ingest: enrichment and batching, into a sink that only keeps
	// the batch (the slice tsdb.apply would be handed).
	keep := &keepSink{}
	rt, err := router.New(router.Config{Primary: keep})
	if err != nil {
		return nil, err
	}
	for _, sig := range g.jobSignals() {
		if err := rt.JobStart(router.JobSignal{JobID: sig.JobID, User: sig.Username, Nodes: sig.Nodes, Tags: sig.Tags}); err != nil {
			return nil, err
		}
	}
	enriched := make([][]lineproto.Point, nBodies)
	for i := range parsed {
		if err := rt.IngestContext(ctx, parsed[i]); err != nil {
			return nil, err
		}
		enriched[i] = keep.last
	}
	ns, allocs = timed(budget, func(i int) { _ = rt.IngestContext(ctx, parsed[i%nBodies]) })
	out["router.ingest_ns_per_point"] = value{ns / pointsPerBody, 0}
	out["router.ingest_allocs_per_point"] = value{allocs / pointsPerBody, 0}

	// router.serve and tsdb.serve_write on a 1-line body.
	oneLine, _ := newGen(workloads[1], 1).writeBody(nil, 0)
	ns, _ = timed(budget, func(int) { rt.ServeHTTP(newRecorder(), request(http.MethodPost, "/write", oneLine)) })
	out["router.serve_us_per_req"] = value{ns / 1e3, 0}
	volatile := tsdb.NewStore()
	volatile.CreateDatabase(database)
	vh := tsdb.NewHandler(volatile)
	ns, _ = timed(budget, func(int) {
		vh.ServeHTTP(newRecorder(), request(http.MethodPost, "/write?db="+database, oneLine))
	})
	out["tsdb.serve_write_us_per_req"] = value{ns / 1e3, 0}

	// lineproto.encode on the sub-batches the ring makes of a batch: what
	// the coordinator pays once per owner.
	var subs [][]lineproto.Point
	if g.nodes > 1 {
		var peers []string
		for i := 0; i < g.nodes; i++ {
			peers = append(peers, fmt.Sprintf("http://127.0.0.1:%d", basePort+i))
		}
		ring := cluster.NewRing(peers, 0)
		for _, pts := range enriched[:16] {
			per := map[string][]lineproto.Point{}
			for _, p := range pts {
				for _, id := range ring.Owners(cluster.PlacementKey(database, p.Measurement), 2) {
					per[id] = append(per[id], p)
				}
			}
			for _, id := range peers {
				if len(per[id]) > 0 {
					subs = append(subs, per[id])
				}
			}
		}
	} else {
		subs = enriched[:16]
	}
	subPoints := 0
	for _, sb := range subs {
		subPoints += len(sb)
	}
	ns, _ = timed(budget, func(i int) { _, _ = lineproto.Encode(subs[i%len(subs)]) })
	out["lineproto.encode_ns_per_point"] = value{ns * float64(len(subs)) / float64(subPoints), 0}

	// tsdb.apply on a volatile store. Each batch is applied once per
	// store, as in production; a fresh store starts when they run out.
	var adb *tsdb.DB
	ns, allocs = timed(budget, func(i int) {
		if i%nBodies == 0 {
			adb = tsdb.NewStore().CreateDatabase(database)
		}
		_ = adb.WriteBatchContext(ctx, enriched[i%nBodies])
	})
	out["tsdb.apply_ns_per_point"] = value{ns / pointsPerBody, 0}
	out["tsdb.apply_allocs_per_batch"] = value{allocs, 0}

	// durable.encode and the WAL at fsync=batch.
	var buf []byte
	now := time.Now().UnixNano()
	ns, _ = timed(budget, func(i int) { buf = durable.AppendBatch(buf[:0], enriched[i%nBodies], now) })
	out["durable.encode_ns_per_point"] = value{ns / pointsPerBody, 0}
	wal, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0, durable.Options{Fsync: durable.FsyncPerBatch}, nil)
	if err != nil {
		return nil, err
	}
	frames := 0
	ns, _ = timed(budget, func(i int) {
		_, _, _ = wal.Append(durable.AppendBatch(buf[:0], enriched[i%nBodies], now))
		frames++
	})
	out["durable.wal_append_us_per_batch"] = value{ns / 1e3, 0}
	out["durable.wal_bytes_per_point"] = value{float64(wal.TotalSize()) / (float64(frames) * pointsPerBody), 0}
	single := durable.AppendBatch(nil, enriched[0][:1], now)
	ns, _ = timed(budget, func(int) { _, _, _ = wal.Append(single) })
	out["durable.wal_append_us_single"] = value{ns / 1e3, 0}
	if err := wal.Close(); err != nil {
		return nil, err
	}

	// A durable single node holding the history: checkpoint, recovery
	// from checkpoint plus WAL tail, compression.
	ddir := filepath.Join(dir, "node")
	open := func() (*tsdb.Store, *tsdb.DB, error) {
		store, err := tsdb.OpenStore(tsdb.StoreOptions{Durability: tsdb.Durability{Dir: ddir, Fsync: durable.FsyncOff}})
		if err != nil {
			return nil, nil, err
		}
		db, err := store.OpenDatabase(database)
		return store, db, err
	}
	store, db, err := open()
	if err != nil {
		return nil, err
	}
	if err := loadHistory(g, in.bodies, db); err != nil {
		return nil, err
	}
	histPoints := in.history.points
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	out["durable.checkpoint_ms"] = value{ms(time.Since(t0)), 1}
	snaps, _ := filepath.Glob(filepath.Join(ddir, database, "checkpoint-*.snap"))
	var snapBytes int64
	for _, f := range snaps {
		if info, err := os.Stat(f); err == nil {
			snapBytes += info.Size()
		}
	}
	out["durable.checkpoint_bytes_per_point"] = value{float64(snapBytes) / float64(histPoints), 0}
	tail := 0
	for _, pts := range enriched[:64] {
		if err := db.WriteBatchContext(ctx, pts); err != nil {
			return nil, err
		}
		tail += len(pts)
	}
	store.Abort() // a crash: the tail stays in the WAL
	t0 = time.Now()
	store, db, err = open()
	if err != nil {
		return nil, err
	}
	out["durable.recovery_ms_per_mpoint"] = value{ms(time.Since(t0)) / (float64(histPoints+tail) / 1e6), 1}

	// Reads run on the history node with the result cache off, before and
	// after compressing every run.
	var selects []tsdb.Statement
	var texts []string
	for _, st := range in.pool {
		if st.kind == kindPanel && len(selects) < 64 {
			parsed, err := tsdb.ParseQuery(st.text)
			if err != nil {
				return nil, err
			}
			selects = append(selects, parsed[0])
			texts = append(texts, st.text)
		}
	}
	ns, _ = timed(budget, func(i int) { _, _ = tsdb.ParseQuery(in.pool[i%len(in.pool)].text) })
	out["tsdb.ql_parse_us"] = value{ns / 1e3, 0}
	lq := tsdb.LocalQuerier{Store: store}
	query := func(i int) {
		_, _ = lq.Query(ctx, tsdb.Request{Database: database, Statements: selects[i%len(selects) : i%len(selects)+1]})
	}
	db.SetQueryCacheTTL(0)
	rawNS, _ := timed(budget, query)
	out["tsdb.select_raw_us"] = value{rawNS / 1e3, 0}

	// The handler around the same select: URL and form parsing, JSON.
	h := tsdb.NewHandler(store)
	targets := make([]string, len(texts))
	for i, text := range texts {
		targets[i] = queryURL("", statement{text: text})
	}
	ns, _ = timed(budget, func(i int) { h.ServeHTTP(newRecorder(), request(http.MethodGet, targets[i%len(targets)], nil)) })
	out["tsdb.serve_query_self_us"] = value{(ns - rawNS) / 1e3, 0}
	// And the client in front of the handler, over loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var inHandler atomic.Int64
	stopServing := serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		inHandler.Add(int64(time.Since(t)))
	}))
	client := &tsdb.Client{BaseURL: "http://" + ln.Addr().String(), Database: database}
	calls := 0
	ns, _ = timed(budget, func(i int) {
		_, _ = client.Query(ctx, tsdb.Request{Statements: selects[i%len(selects) : i%len(selects)+1]})
		calls++
	})
	stopServing()
	out["tsdb.client_decode_us"] = value{(ns - float64(inHandler.Load())/float64(calls)) / 1e3, 0}

	// A repeat inside the TTL is served from the result cache.
	db.SetQueryCacheTTL(tsdb.DefaultQueryCacheTTL)
	ns, _ = timed(budget, func(int) { query(0) })
	out["tsdb.cache_hit_us"] = value{ns / 1e3, 0}
	db.SetQueryCacheTTL(0)

	// EXPLAIN ANALYZE counters over the same statements.
	examined, _, rows, err := explainTotals(lq, selects)
	if err != nil {
		return nil, err
	}
	out["tsdb.points_examined_per_row"] = value{examined / max(rows, 1), len(selects)}

	t0 = time.Now()
	db.Compress()
	out["tsdb.compress_ns_per_point"] = value{float64(time.Since(t0)) / float64(histPoints+tail), 1}
	ns, _ = timed(budget, query)
	out["tsdb.select_compressed_us"] = value{ns / 1e3, 0}
	_, chunks, _, err := explainTotals(lq, selects)
	if err != nil {
		return nil, err
	}
	out["tsdb.chunks_decoded_per_query"] = value{chunks / float64(len(selects)), len(selects)}
	if err := store.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// explainTotals runs each statement under EXPLAIN ANALYZE and adds up
// the points examined, the chunks decoded and the rows returned.
func explainTotals(lq tsdb.LocalQuerier, selects []tsdb.Statement) (examined, chunks, rows float64, err error) {
	for _, st := range selects {
		st.Kind = tsdb.StmtExplainAnalyze
		resp, err := lq.Query(context.Background(), tsdb.Request{Database: database, Statements: []tsdb.Statement{st}})
		if err != nil || len(resp.Results) != 1 || resp.Results[0].Err != "" {
			return 0, 0, 0, fmt.Errorf("EXPLAIN ANALYZE %s: %v %v", st.Text(), err, resp.Results)
		}
		for _, series := range resp.Results[0].Series {
			if series.Name != tsdb.ExplainSeriesName {
				rows += float64(len(series.Values))
				continue
			}
			for _, row := range series.Values {
				// The counters are Go ints of several widths.
				n, _ := strconv.ParseFloat(fmt.Sprint(row[1]), 64)
				switch row[0] {
				case "points_examined":
					examined += n
				case "chunks_decoded":
					chunks += n
				}
			}
		}
	}
	return examined, chunks, rows, nil
}
