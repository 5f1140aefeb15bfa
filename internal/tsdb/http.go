package tsdb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/tsdb/durable"
)

// Handler exposes a Store over the InfluxDB HTTP API. The LMS router, the
// host agents (Diamond, cronjobs with curl) and the dashboard agent all talk
// to this interface (paper Fig. 1):
//
//	POST /write?db=<name>[&precision=ns|u|ms|s|m|h]   line-protocol body
//	POST /write?db=<name>&local=1                     BatchContentType body (replica share)
//	GET|POST /query?db=<name>&q=<influxql>            JSON results
//	GET /ping                                         204 No Content
//
// Unknown databases are created on first write, which keeps the
// "integration effort as low as possible" goal: an agent can start pushing
// before an administrator provisions anything.
//
// SELECTs served through /query run on the lock-light two-phase engine
// behind DB.SelectContext (select.go): a query holds its shard's read lock
// only while snapshotting the matching point runs, so dashboard polling
// through this handler no longer stalls agents writing to the same shard,
// and repeated identical queries inside the cache TTL are answered from
// the query-result cache (cache.go).
type Handler struct {
	store   *Store
	mux     *http.ServeMux
	metrics *Metrics

	// AutoCreate controls whether /write creates missing databases.
	AutoCreate bool

	// MaxBodyBytes caps the size of one /write body; larger requests are
	// refused with 413 Request Entity Too Large instead of being silently
	// truncated. 0 selects DefaultMaxBodyBytes. Set before serving.
	MaxBodyBytes int64

	// SlowQueryThreshold, when > 0, logs every /query request that takes
	// at least this long (and counts it in lms_slow_queries_total). Set
	// before serving.
	SlowQueryThreshold time.Duration

	// Distributed, when set, coordinates /query across a cluster: each
	// statement is routed to the replicas owning its measurement and the
	// answers merged (internal/cluster). Requests carrying local=1 — sent
	// by peer coordinators — bypass it and answer from the local store, so
	// coordination never loops. /write is unaffected: the router places
	// writes on the ring before they reach a node. Set before serving.
	Distributed Querier

	// gate is the ingest admission controller (SetAdmission); nil admits
	// everything.
	gate *obs.Gate
}

// DefaultMaxBodyBytes is the /write body cap used when Handler.MaxBodyBytes
// (or router.Config.MaxBodyBytes) is zero.
const DefaultMaxBodyBytes int64 = 64 << 20

// BatchContentType marks a /write body as one durable batch frame
// (durable.AppendBatch) instead of line-protocol text. It is the cluster's
// coordinator → replica wire (DESIGN.md §12): the codec the replica's WAL
// and the coordinator's hint queue already hold, so a replica share is
// encoded once and never parsed as text.
const BatchContentType = "application/x-lms-batch"

// NewHandler returns an HTTP handler serving the store, including its
// observability bundle on GET /metrics (Prometheus text format).
func NewHandler(store *Store) *Handler {
	h := &Handler{store: store, AutoCreate: true, metrics: store.Metrics()}
	mux := http.NewServeMux()
	mux.HandleFunc("/write", h.handleWrite)
	mux.HandleFunc("/query", h.handleQuery)
	mux.HandleFunc("/ping", h.handlePing)
	mux.Handle("/metrics", h.metrics.Handler())
	mux.HandleFunc("/debug/traces", h.handleTraces)
	h.mux = mux
	return h
}

// SetAdmission bounds the ingest path: at most maxReqs concurrent /write
// requests holding at most maxBytes summed body bytes are admitted; excess
// load is shed with 429 + Retry-After (and counted in
// lms_http_requests_shed_total) instead of piling up goroutines and
// buffers. Either bound <= 0 is unlimited. Call before serving.
func (h *Handler) SetAdmission(maxReqs, maxBytes int64) {
	if maxReqs <= 0 && maxBytes <= 0 {
		h.gate = nil
		h.metrics.setGate(nil)
		return
	}
	h.gate = obs.NewGate(maxReqs, maxBytes)
	h.metrics.setGate(h.gate)
}

func (h *Handler) maxBody() int64 {
	if h.MaxBodyBytes > 0 {
		return h.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// traceRing returns the store's completed-trace ring (Store.SetTraces),
// nil when tracing is off.
func (h *Handler) traceRing() *obs.TraceRing { return h.metrics.traces.Load() }

// handleTraces serves the completed-trace ring as JSON (DESIGN.md §14).
func (h *Handler) handleTraces(w http.ResponseWriter, r *http.Request) {
	ring := h.traceRing()
	if ring == nil {
		httpError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	ring.ServeHTTP(w, r)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handlePing(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("X-Influxdb-Version", "lms-tsdb-1.0")
	w.WriteHeader(http.StatusNoContent)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// AdmitWrite runs the admission sequence every InfluxDB-protocol /write
// door shares (this handler and the router's): POST only; a slot in gate
// (nil admits everything) or 429 with a Retry-After hint, the standard
// backpressure signal for such writers; the precision parameter; then the
// body, read up to maxBody bytes or refused with 413. ok is false when the
// request was refused and already answered. Otherwise mult scales the
// body's timestamps to nanoseconds (ParseLines) and the caller calls
// release once it is done with the body.
func AdmitWrite(w http.ResponseWriter, r *http.Request, gate *obs.Gate, maxBody int64) (body []byte, mult int64, release func(), ok bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, 0, nil, false
	}
	release, ok = gate.Acquire(r.ContentLength)
	if !ok {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "ingest overloaded, retry later")
		return nil, 0, nil, false
	}
	precision := r.URL.Query().Get("precision")
	if mult, ok = timeUnits[cmp.Or(precision, "ns")]; !ok {
		release()
		httpError(w, http.StatusBadRequest, "invalid precision %q", precision)
		return nil, 0, nil, false
	}
	body, tooLarge, err := readBodyLimited(r.Body, r.ContentLength, maxBody)
	if err != nil || tooLarge {
		release()
		if tooLarge {
			httpError(w, http.StatusRequestEntityTooLarge, "write body exceeds %d bytes", maxBody)
		} else {
			httpError(w, http.StatusBadRequest, "read body: %v", err)
		}
		return nil, 0, nil, false
	}
	return body, mult, release, true
}

// ParseLines parses a line-protocol body whose timestamps are in the
// precision mult stands for (AdmitWrite) into points carrying nanosecond
// timestamps.
func ParseLines(body []byte, mult int64) ([]lineproto.Point, error) {
	pts, err := lineproto.Parse(body)
	if err == nil {
		err = scaleTimes(pts, mult)
	}
	return pts, err
}

// readBodyLimited reads a request body of at most max bytes. A body larger
// than max reports tooLarge=true: reading on a truncating limit and
// parsing the prefix would silently drop the tail (a 64 MiB body cut at a
// line boundary parses cleanly!), so callers refuse with 413 instead.
// size is the declared Content-Length (-1 when unknown): a known length
// sizes the buffer once, an unknown one grows it as it reads.
func readBodyLimited(r io.Reader, size, max int64) (body []byte, tooLarge bool, err error) {
	if size < 0 {
		size = 0
	}
	// MinRead of slack is what ReadFrom wants free before every read, the
	// one that finds EOF included; min so a declared length past the cap
	// reserves no more than the cap.
	buf := bytes.NewBuffer(make([]byte, 0, min(size, max+1)+bytes.MinRead))
	if _, err = buf.ReadFrom(io.LimitReader(r, max+1)); err != nil {
		return nil, false, err
	}
	body = buf.Bytes()
	if int64(len(body)) > max {
		return nil, true, nil
	}
	return body, false, nil
}

// scaleTimes converts point timestamps parsed in the given precision to
// nanoseconds, rejecting values whose scaled form overflows int64 — an
// unchecked multiply would silently wrap into a garbage time.
func scaleTimes(pts []lineproto.Point, mult int64) error {
	if mult == 1 {
		return nil
	}
	for i := range pts {
		if pts[i].Time.IsZero() {
			continue
		}
		ns := pts[i].Time.UnixNano()
		if ns > math.MaxInt64/mult || ns < math.MinInt64/mult {
			return fmt.Errorf("point %d: timestamp %d overflows the time range at this precision", i, ns)
		}
		pts[i].Time = time.Unix(0, ns*mult).UTC()
	}
	return nil
}

func (h *Handler) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, mult, release, ok := AdmitWrite(w, r, h.gate, h.maxBody())
	if !ok {
		return
	}
	defer release()
	dbName := r.URL.Query().Get("db")
	if dbName == "" {
		httpError(w, http.StatusBadRequest, "missing db parameter")
		return
	}
	db := h.store.DB(dbName)
	if db == nil {
		if !h.AutoCreate {
			httpError(w, http.StatusNotFound, "database %q not found", dbName)
			return
		}
		// On a durable store a failed durable open must fail the write.
		var err error
		db, err = h.store.OpenDatabase(dbName)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "create database: %v", err)
			return
		}
	}
	// A frame body is checked as it stands — it carries resolved nanosecond
	// timestamps and is the WAL record of the batch as received — and text
	// is parsed into points; both end in DB.writeFrame.
	var pts []lineproto.Point
	var fb *frameBatch
	var err error
	if r.Header.Get("Content-Type") == BatchContentType {
		if mult != 1 {
			httpError(w, http.StatusBadRequest, "a batch frame carries nanosecond timestamps; precision must be ns")
			return
		}
		fb, err = db.checkFrame(body)
	} else {
		pts, err = ParseLines(body, mult)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Continue (or start) a trace: the router stamps X-Lms-Trace on its
	// fan-out, so this node's WAL/apply spans land under the same id.
	tr := h.traceRing().StartTrace("tsdb.write", r.Header.Get(obs.TraceHeader))
	ctx := obs.WithTrace(r.Context(), tr)
	sp := tr.Start("tsdb.http.write").Attr("db", dbName)
	if fb != nil {
		sp.AttrInt("points", int64(len(fb.refs)))
		err = db.writeFrame(ctx, fb)
	} else {
		sp.AttrInt("points", int64(len(pts)))
		err = db.WriteBatchContext(ctx, pts)
	}
	sp.End()
	tr.Finish()
	if err != nil {
		// A refused point is the writer's to fix (400, do not retry); a WAL
		// that failed or a database that closed is the server's (500, so an
		// InfluxDB-protocol writer retries).
		status := http.StatusInternalServerError
		if errors.Is(err, durable.ErrInvalidPoint) {
			status = http.StatusBadRequest
		}
		httpError(w, status, "%v", err)
		return
	}
	h.metrics.IngestBytes.Add(uint64(len(body)))
	w.WriteHeader(http.StatusNoContent)
}

// handleQuery serves GET|POST /query. Beyond db and q it understands the
// InfluxDB epoch parameter (integer timestamps in the given precision) and
// chunked=true (one JSON document streamed per statement); a statement's
// own LIMIT is the one row cap. Statement execution runs under
// the request context, so a client that disconnects mid-aggregation stops
// the query engine instead of completing work nobody reads.
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	var params url.Values
	switch r.Method {
	case http.MethodGet:
		params = r.URL.Query()
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			httpError(w, http.StatusBadRequest, "parse form: %v", err)
			return
		}
		params = r.Form
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	qstr := params.Get("q")
	if qstr == "" {
		httpError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	epoch := params.Get("epoch")
	if _, err := epochMult(epoch); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stmts, err := ParseQuery(qstr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dbName := params.Get("db")
	tr := h.traceRing().StartTrace("tsdb.query", r.Header.Get(obs.TraceHeader))
	rsp := tr.Start("tsdb.http.query").Attr("db", dbName).Attr("q", qstr)
	ctx := obs.WithTrace(r.Context(), tr)
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		h.metrics.QuerySeconds.Observe(elapsed.Seconds())
		rsp.End()
		tr.Finish()
		if h.SlowQueryThreshold > 0 && elapsed >= h.SlowQueryThreshold {
			h.metrics.SlowQueries.Inc()
			obs.Warnf("tsdb: slow query (%v >= %v) db=%q q=%q trace=%s", elapsed, h.SlowQueryThreshold, dbName, qstr, tr.ID())
		}
	}()
	w.Header().Set("Content-Type", "application/json")
	out := resultWriter{enc: json.NewEncoder(w), chunked: params.Get("chunked") == "true"}
	out.flusher, _ = w.(http.Flusher)
	if h.Distributed != nil && params.Get("local") != "1" {
		// The cluster coordinator computes the whole response before the
		// first byte is written: a replica set that is entirely unreachable
		// becomes a 502 the client retries, not a half-streamed document.
		resp, err := h.Distributed.Query(ctx, Request{Database: dbName, Statements: stmts, Epoch: epoch})
		if err != nil {
			httpError(w, http.StatusBadGateway, "cluster query: %v", err)
			return
		}
		for _, res := range resp.Results {
			if err = out.emit(res); err != nil {
				break
			}
		}
		out.finish(err)
		return
	}
	out.finish(execStatements(ctx, h.store, dbName, stmts, epoch, out.emit))
}

// resultWriter renders the results of one /query request, whichever source
// computed them (the local store or the cluster coordinator). Plain: one
// {"results":[...]} document holding every statement, written by finish.
// Chunked: one complete document per statement, flushed as soon as emit
// receives it; the client side merges the stream back into one Response
// (readResponseStream) and checks it received one result per statement.
type resultWriter struct {
	enc     *json.Encoder
	flusher http.Flusher // nil when the ResponseWriter cannot flush
	chunked bool
	resp    Response // plain mode: results buffered until finish
}

func (rw *resultWriter) emit(res ExecResult) error {
	if !rw.chunked {
		rw.resp.Results = append(rw.resp.Results, res)
		return nil
	}
	if err := rw.enc.Encode(Response{Results: []ExecResult{res}}); err != nil {
		return err
	}
	if rw.flusher != nil {
		rw.flusher.Flush()
	}
	return nil
}

// finish completes the response. If execution died part-way (err != nil;
// usually the client is gone) a best-effort error document — trailing the
// stream in chunked mode, replacing the buffered results in plain mode —
// turns the truncation into an explicit per-statement error instead of a
// valid-looking short or empty result.
func (rw *resultWriter) finish(err error) {
	switch {
	case err != nil:
		_ = rw.enc.Encode(Response{Results: []ExecResult{{Err: fmt.Sprintf("stream truncated: %v", err)}}})
	case !rw.chunked:
		_ = rw.enc.Encode(rw.resp)
	}
}

// Transport defaults of the package-level HTTP client. The zero
// http.DefaultClient has no timeout at all — one hung lms-db connection
// would wedge a dashboard worker forever — so Client defaults to a pooled
// transport with a bounded request timeout instead.
const (
	// DefaultClientTimeout bounds one HTTP request (dial + write + full
	// response body) of a Client using the default transport.
	DefaultClientTimeout = 15 * time.Second
	// DefaultQueryRetries is the number of times a failed idempotent query
	// is retried (on connection errors and 5xx responses).
	DefaultQueryRetries = 2
	// DefaultRetryBackoff is the first retry delay; it doubles per attempt.
	DefaultRetryBackoff = 100 * time.Millisecond
)

// defaultHTTPClient is shared by every Client without an explicit
// HTTPClient, so connections to the same lms-db are pooled process-wide —
// including every per-peer client the cluster coordinator builds, which
// is why the per-host limits are explicit: MaxConnsPerHost caps what a
// replication fan-out under load can open against one peer (excess
// requests queue on the pool instead of exhausting sockets), and
// MaxIdleConnsPerHost keeps enough of them warm that steady-state
// fan-out never redials.
var defaultHTTPClient = &http.Client{
	Timeout: DefaultClientTimeout,
	Transport: &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 16,
		MaxConnsPerHost:     64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Client is an InfluxDB HTTP client used by the LMS components to write to
// and query a tsdb (or a real InfluxDB, or the router, which mimics this
// interface). It implements Querier, so every read-side component that
// takes a Querier can run against a remote lms-db by substituting a Client
// for the LocalQuerier — the deployment topology of the paper, where the
// web front-end and the metrics database live on different hosts.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8086".
	BaseURL string
	// Database is the default database for writes and queries (a
	// Request.Database overrides it per query).
	Database string
	// HTTPClient optionally overrides the pooled package default (which
	// carries DefaultClientTimeout).
	HTTPClient *http.Client
	// MaxRetries is the number of retries for failed idempotent queries;
	// 0 selects DefaultQueryRetries, negative disables retrying.
	MaxRetries int
	// RetryBackoff is the first retry delay, doubling per attempt; 0
	// selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Params are extra URL parameters added to every /write and /query
	// request. The cluster coordinator marks its fan-out requests with
	// local=1 so a peer answers from its own store instead of
	// re-coordinating (loop prevention).
	Params url.Values
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) retries() int {
	if c.MaxRetries == 0 {
		return DefaultQueryRetries
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return c.MaxRetries
}

func (c *Client) backoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return c.RetryBackoff
}

// WriteBody posts a raw line-protocol payload.
func (c *Client) WriteBody(body []byte) error {
	return c.WriteBodyContext(context.Background(), body)
}

// WriteBodyContext posts a raw line-protocol payload under the context.
// A trace riding the context is propagated to the server via X-Lms-Trace
// and annotated with a client-side rpc.write span.
func (c *Client) WriteBodyContext(ctx context.Context, body []byte) error {
	return c.postWrite(ctx, "text/plain", body)
}

// WriteFrameContext posts one durable batch frame (durable.AppendBatch,
// timestamps resolved) to an lms-db's /write as BatchContentType, with the
// trace propagation of WriteBodyContext. It is the cluster coordinator's
// replica write; only an lms-db understands it, so everything that may face
// a real InfluxDB keeps to WriteBody*/WritePoints*.
func (c *Client) WriteFrameContext(ctx context.Context, frame []byte) error {
	return c.postWrite(ctx, BatchContentType, frame)
}

func (c *Client) postWrite(ctx context.Context, contentType string, body []byte) error {
	vals := url.Values{}
	for k, vs := range c.Params {
		vals[k] = vs
	}
	vals.Set("db", c.Database)
	// bytes.Reader, so net/http knows the length: the request carries
	// Content-Length (what the receiver's admission gate charges) and a
	// GetBody (a POST that hit a stale keep-alive connection is replayed).
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/write?"+vals.Encode(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", contentType)
	tr := obs.TraceFrom(ctx)
	if id := tr.ID(); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	sp := tr.Start("rpc.write").Attr("peer", c.BaseURL).AttrInt("bytes", int64(len(body)))
	resp, err := c.httpClient().Do(hreq)
	sp.End()
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("tsdb: write status %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// WritePoints encodes and posts a batch of points.
func (c *Client) WritePoints(pts []lineproto.Point) error {
	return c.WritePointsContext(context.Background(), pts)
}

// WritePointsContext encodes and posts a batch of points under the
// context (trace propagation included).
func (c *Client) WritePointsContext(ctx context.Context, pts []lineproto.Point) error {
	body, err := lineproto.Encode(pts)
	if err != nil {
		return err
	}
	return c.WriteBodyContext(ctx, body)
}

// Query implements Querier over the HTTP /query endpoint. Pre-parsed
// statements are serialized to canonical InfluxQL for the wire; parameters
// travel as properly encoded url.Values, so database names and query text
// containing '&', '+' or '%' survive intact. Transient failures (connection
// errors, 5xx responses) of this idempotent GET are retried with
// exponential backoff, honoring ctx.
func (c *Client) Query(ctx context.Context, req Request) (Response, error) {
	qtext := req.RawQuery
	expect := len(req.Statements)
	if expect > 0 {
		qtext = textOf(req.Statements)
	} else if stmts, err := ParseQuery(req.RawQuery); err == nil {
		// The server answers one result per statement; knowing the count
		// lets the client detect a truncated (chunked) stream. RawQuery
		// text our InfluxQL subset cannot parse may still be valid for a
		// real InfluxDB, so a parse failure just disables the check.
		expect = len(stmts)
	}
	dbName := req.Database
	if dbName == "" {
		dbName = c.Database
	}
	vals := url.Values{}
	for k, vs := range c.Params {
		vals[k] = vs
	}
	vals.Set("q", qtext)
	if dbName != "" {
		vals.Set("db", dbName)
	}
	if req.Epoch != "" {
		vals.Set("epoch", req.Epoch)
	}
	if req.Chunked {
		vals.Set("chunked", "true")
	}
	u := c.BaseURL + "/query?" + vals.Encode()

	var lastErr error
	backoff := c.backoff()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return Response{}, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		resp, retryable, err := c.queryOnce(ctx, u, expect)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryable || attempt >= c.retries() || ctx.Err() != nil {
			return Response{}, lastErr
		}
	}
}

// queryOnce performs one GET /query round-trip. retryable reports whether
// the failure is transient (network error, 5xx, truncated stream) rather
// than a caller mistake (4xx, malformed body). expect > 0 is the known
// statement count of the request: a 2xx body carrying fewer results is a
// truncated stream — a mid-flight failure of the chunked path leaves a
// valid-looking but short document sequence — and is surfaced (and
// retried) instead of silently merged.
func (c *Client) queryOnce(ctx context.Context, u string, expect int) (Response, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Response{}, false, err
	}
	tr := obs.TraceFrom(ctx)
	if id := tr.ID(); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	sp := tr.Start("rpc.query").Attr("peer", c.BaseURL)
	defer sp.End()
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return Response{}, true, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return Response{}, hresp.StatusCode/100 == 5,
			fmt.Errorf("tsdb: query status %d: %s", hresp.StatusCode, msg)
	}
	resp, err := readResponseStream(hresp.Body)
	if err != nil {
		return Response{}, false, fmt.Errorf("tsdb: decode query response: %w", err)
	}
	if expect > 0 && len(resp.Results) < expect {
		return Response{}, true,
			fmt.Errorf("tsdb: truncated query response: %d statements produced %d results", expect, len(resp.Results))
	}
	return resp, false, nil
}

// readResponseStream decodes a /query body: either one JSON document or,
// for chunked responses, a stream of documents merged in order. Decoding is
// incremental (no ReadAll staging buffer) and numbers stay json.Number, so
// int64 values and nanosecond epoch timestamps above 2^53 keep full
// precision instead of rounding through float64.
func readResponseStream(r io.Reader) (Response, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var out Response
	for {
		var chunk Response
		if err := dec.Decode(&chunk); err != nil {
			if err == io.EOF {
				break
			}
			return Response{}, err
		}
		out.Results = append(out.Results, chunk.Results...)
	}
	return out, nil
}

// FloatValue converts an InfluxDB JSON value cell to float64: float64 and
// int64 from a LocalQuerier, json.Number off the HTTP wire, bools as 0/1
// (matching lineproto.Value.FloatVal). Strings and nil do not convert.
// Client-side counterpart of ParseTimestamp for the value columns.
func FloatValue(v interface{}) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int64:
		return float64(t), true
	case json.Number:
		f, err := t.Float64()
		return f, err == nil
	case bool:
		if t {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// ParseTimestamp converts an InfluxDB JSON time column entry (RFC3339 string
// or integer nanoseconds) back to time.Time. Helper for client-side result
// processing in the dashboard and analysis components.
func ParseTimestamp(v interface{}) (time.Time, error) {
	switch t := v.(type) {
	case string:
		ts, err := time.Parse(time.RFC3339Nano, t)
		if err != nil {
			return time.Time{}, err
		}
		return ts, nil
	case float64:
		return time.Unix(0, int64(t)).UTC(), nil
	case int64:
		return time.Unix(0, t).UTC(), nil
	case json.Number:
		ns, err := strconv.ParseInt(string(t), 10, 64)
		if err != nil {
			return time.Time{}, err
		}
		return time.Unix(0, ns).UTC(), nil
	default:
		return time.Time{}, fmt.Errorf("tsdb: unsupported time column type %T", v)
	}
}
