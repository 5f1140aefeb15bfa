// Package router implements the LMS metrics router (paper Sect. III-B), the
// central component of the monitoring stack.
//
// The router mimics the HTTP interface of an InfluxDB database (so any host
// agent that can talk to InfluxDB can talk to the router) plus an endpoint
// for job start and end signals. Its job registry is the paper's *tag
// store* keyed by hostname: when a job starts, the scheduler's signal
// carries tags (job id, user name, ...) that are attached to every metric
// and event arriving from the participating hosts for the duration of the
// job. All received metrics are forwarded to the database back-end; if
// configured, the router duplicates job metrics into a per-user database,
// and publishes metrics and meta information over the ZeroMQ-style pub/sub
// fabric for stream analyzers.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/tsdb"
)

// Sink receives forwarded point batches. Implemented by tsdb-backed local
// sinks and by the InfluxDB HTTP client, so the router can front either an
// in-process database or a remote one.
type Sink interface {
	WritePoints(pts []lineproto.Point) error
}

// ContextSink is the optional traced form of Sink. A sink implementing it
// receives the ingest context, so a trace riding it (DESIGN.md §14)
// reaches the storage engine — and, through the cluster write path or the
// HTTP client's X-Lms-Trace header, every replica. Plain Sinks keep
// working untraced; the pipeline type-asserts per flush.
type ContextSink interface {
	Sink
	WritePointsContext(ctx context.Context, pts []lineproto.Point) error
}

// writeSink flushes one batch through the traced interface when the sink
// offers it.
func writeSink(ctx context.Context, s Sink, pts []lineproto.Point) error {
	if cs, ok := s.(ContextSink); ok {
		return cs.WritePointsContext(ctx, pts)
	}
	return s.WritePoints(pts)
}

// LocalSink writes directly into an in-process tsdb database through its
// sharded batch entry point.
type LocalSink struct{ DB *tsdb.DB }

// WritePoints implements Sink by flushing the batch via DB.WriteBatchContext.
func (s LocalSink) WritePoints(pts []lineproto.Point) error {
	return s.DB.WriteBatchContext(context.Background(), pts)
}

// WritePointsContext implements ContextSink.
func (s LocalSink) WritePointsContext(ctx context.Context, pts []lineproto.Point) error {
	return s.DB.WriteBatchContext(ctx, pts)
}

// Config wires a Router.
type Config struct {
	// Primary is the main database sink (required).
	Primary Sink
	// UserSink returns the duplication sink for a user, or nil to skip
	// duplication for that user. Optional.
	UserSink func(user string) Sink
	// Publisher, if set, receives every forwarded batch on topic
	// "metrics/<measurement>" and every job signal on "meta/jobstart" /
	// "meta/jobend".
	Publisher *pubsub.Publisher
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
	// MaxBodyBytes caps one /write body; larger payloads are refused with
	// 413 instead of being silently truncated. 0 selects
	// tsdb.DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInFlightRequests / MaxInFlightBytes bound the ingest admission
	// gate: beyond either budget /write sheds with 429 + Retry-After.
	// 0 means unlimited for that dimension.
	MaxInFlightRequests int64
	MaxInFlightBytes    int64
	// Traces, when set, records one trace per /write request (continuing
	// an upstream X-Lms-Trace id) and serves the completed ring on GET
	// /debug/traces. Nil keeps tracing off at zero cost.
	Traces *obs.TraceRing
}

// Router is the LMS metrics router. Create with New, expose with ServeHTTP.
type Router struct {
	cfg  Config
	mux  *http.ServeMux
	jobs *JobRegistry
	gate *obs.Gate
	reg  *obs.Registry
	fwd  forwarder

	received  atomic.Int64
	forwarded atomic.Int64
	dropped   atomic.Int64
}

// maxJobHistory bounds the finished-job records a router retains.
const maxJobHistory = 1000

// New validates the configuration and builds a router.
func New(cfg Config) (*Router, error) {
	if cfg.Primary == nil {
		return nil, fmt.Errorf("router: Primary sink is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Router{
		cfg:  cfg,
		jobs: NewJobRegistry(maxJobHistory),
		fwd:  forwarder{sink: cfg.Primary},
	}
	if cfg.MaxInFlightRequests > 0 || cfg.MaxInFlightBytes > 0 {
		r.gate = obs.NewGate(cfg.MaxInFlightRequests, cfg.MaxInFlightBytes)
	}
	r.reg = newRouterMetrics(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/write", r.handleWrite)
	mux.HandleFunc("/ping", r.handlePing)
	mux.Handle("/metrics", r.reg.Handler())
	mux.HandleFunc("/debug/traces", r.handleTraces)
	mux.HandleFunc("/api/job/start", r.handleJobStart)
	mux.HandleFunc("/api/job/end", r.handleJobEnd)
	mux.HandleFunc("/api/jobs", r.handleJobs)
	mux.HandleFunc("/api/job/", r.handleJobInfo)
	r.mux = mux
	return r, nil
}

// newRouterMetrics builds the router's /metrics registry. The pipeline
// counters already exist as Router atomics (Stats), so everything is a
// Func metric sampled at scrape time.
func newRouterMetrics(r *Router) *obs.Registry {
	reg := obs.NewRegistry()
	reg.NewFunc("lms_router_received_points_total", "Points received by the router pipeline.", "counter",
		func(emit func(string, float64)) { emit("", float64(r.received.Load())) })
	reg.NewFunc("lms_router_forwarded_points_total", "Points forwarded to the primary sink.", "counter",
		func(emit func(string, float64)) { emit("", float64(r.forwarded.Load())) })
	reg.NewFunc("lms_router_forwards_total", "Writes to the primary sink; forwarded points per forward is the group size.", "counter",
		func(emit func(string, float64)) { emit("", float64(r.fwd.forwards.Load())) })
	reg.NewFunc("lms_router_dropped_points_total", "Points dropped on sink errors.", "counter",
		func(emit func(string, float64)) { emit("", float64(r.dropped.Load())) })
	reg.NewFunc("lms_router_shed_requests_total", "Ingest requests shed with 429 by the admission gate.", "counter",
		func(emit func(string, float64)) { emit("", float64(r.gate.Shed())) })
	reg.NewFunc("lms_router_inflight_requests", "Ingest requests currently admitted.", "gauge",
		func(emit func(string, float64)) {
			reqs, _ := r.gate.InFlight()
			emit("", float64(reqs))
		})
	reg.NewFunc("lms_router_inflight_bytes", "Ingest body bytes currently admitted.", "gauge",
		func(emit func(string, float64)) {
			_, bytes := r.gate.InFlight()
			emit("", float64(bytes))
		})
	reg.NewFunc("lms_router_jobs_running", "Jobs currently running in the job registry.", "gauge",
		func(emit func(string, float64)) { emit("", float64(len(r.jobs.Running()))) })
	return reg
}

// Metrics exposes the router's observability registry (the /metrics
// document), for embedding deployments that mount it elsewhere.
func (r *Router) Metrics() *obs.Registry { return r.reg }

func (r *Router) maxBody() int64 {
	if r.cfg.MaxBodyBytes > 0 {
		return r.cfg.MaxBodyBytes
	}
	return tsdb.DefaultMaxBodyBytes
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Stats returns received, forwarded and dropped point counts.
func (r *Router) Stats() (received, forwarded, dropped int64) {
	return r.received.Load(), r.forwarded.Load(), r.dropped.Load()
}

// Jobs exposes the job registry (used by the dashboard agent).
func (r *Router) Jobs() *JobRegistry { return r.jobs }

func (r *Router) handlePing(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("X-Influxdb-Version", "lms-router-1.0")
	w.WriteHeader(http.StatusNoContent)
}

// handleTraces serves the router's completed-trace ring (DESIGN.md §14).
func (r *Router) handleTraces(w http.ResponseWriter, req *http.Request) {
	if r.cfg.Traces == nil {
		httpError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	r.cfg.Traces.ServeHTTP(w, req)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request) {
	body, mult, release, ok := tsdb.AdmitWrite(w, req, r.gate, r.maxBody())
	if !ok {
		return
	}
	defer release()
	// One trace per /write: the root of the distributed write path. The
	// trace id fans out with the batch (ContextSink → cluster → replicas),
	// so /debug/traces here shows the whole journey.
	tr := r.cfg.Traces.StartTrace("router.write", req.Header.Get(obs.TraceHeader))
	sp := tr.Start("router.http.write").AttrInt("bytes", int64(len(body)))
	status := http.StatusBadRequest // a body that does not parse
	pts, err := tsdb.ParseLines(body, mult)
	if err == nil {
		status = http.StatusInternalServerError // a sink that refused it
		err = r.IngestContext(obs.WithTrace(req.Context(), tr), pts)
	}
	sp.End()
	tr.Finish()
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// IngestBatch parses a line-protocol payload (nanosecond timestamps) and
// runs the router pipeline on it. It is the batched entry point of
// in-process producers (collection agents, libusermetric clients) whose
// flush callback delivers an encoded payload; the HTTP /write handler
// parses under the request's precision and enters at IngestContext.
func (r *Router) IngestBatch(payload []byte) error {
	pts, err := lineproto.Parse(payload)
	if err != nil {
		return err
	}
	return r.IngestContext(context.Background(), pts)
}

// IngestContext runs the router pipeline on a batch of points:
// timestamping, tag-store enrichment, per-destination batching,
// forwarding, per-user duplication and publishing. Points are accumulated
// per destination database; the primary batch goes through the group
// forward (forward.go), which may carry it in one sink write with other
// callers' small batches, and each per-user batch is flushed with a single
// sink write. A trace riding the context gets enrich/forward spans, and
// context-aware sinks carry it onward.
func (r *Router) IngestContext(ctx context.Context, pts []lineproto.Point) error {
	if len(pts) == 0 {
		return nil
	}
	tr := obs.TraceFrom(ctx)
	r.received.Add(int64(len(pts)))
	now := r.cfg.Now()

	// Enrich and accumulate. Points without a hostname tag pass through
	// untagged: the paper makes hostname the only mandatory tag, and the
	// router's hash table is keyed by it. The primary batch receives every
	// point; job points owned by a user are additionally accumulated into
	// that user's duplication batch.
	esp := tr.Start("router.enrich").AttrInt("points", int64(len(pts)))
	enriched := make([]lineproto.Point, 0, len(pts))
	perUser := map[string][]lineproto.Point{}
	var (
		jobs     hostJobs
		arena    []lineproto.Tag // the enriched points' tags
		tagsLeft int             // the own tags of the points not yet enriched
	)
	for _, p := range pts {
		tagsLeft += len(p.Tags)
	}
	for i, p := range pts {
		if p.Time.IsZero() {
			p.Time = now
		}
		if job := jobs.of(r.jobs, p.Tag("hostname")); job != nil {
			// Enrichment changes the tag set and nothing else, so that is
			// all it copies: merged into the batch's arena, sized once for
			// the points left at this shape, but for no more tags than they
			// and this job hold (one wide point ahead of many narrow ones
			// must not multiply the two). The caller's batch keeps its own
			// tags; the fields, which nobody writes, stay shared.
			if need := len(p.Tags) + len(job.tags); cap(arena)-len(arena) < need {
				left := len(pts) - i
				arena = make([]lineproto.Tag, 0, min(need*left, tagsLeft+len(job.tags)*left))
			}
			n := len(arena)
			arena = lineproto.MergeTags(arena, p.Tags, job.tags) // a tag the agent sent wins over the job's
			p.Tags = arena[n:len(arena):len(arena)]
			if job.user != "" && r.cfg.UserSink != nil {
				perUser[job.user] = append(perUser[job.user], p)
			}
		}
		tagsLeft -= len(pts[i].Tags)
		enriched = append(enriched, p)
	}
	esp.End()
	fsp := tr.Start("router.forward").AttrInt("points", int64(len(enriched)))
	err := r.forward(ctx, fsp, enriched)
	fsp.End()
	if err != nil {
		return fmt.Errorf("router: forward to primary: %w", err)
	}

	// Per-user duplication is best-effort: a broken user database must not
	// fail ingest into the primary store.
	for user, upts := range perUser {
		sink := r.cfg.UserSink(user)
		if sink == nil {
			continue
		}
		if err := writeSink(ctx, sink, upts); err != nil {
			r.dropped.Add(int64(len(upts)))
		}
	}

	if r.cfg.Publisher != nil {
		byMeasurement := map[string][]lineproto.Point{}
		for _, p := range enriched {
			byMeasurement[p.Measurement] = append(byMeasurement[p.Measurement], p)
		}
		for meas, mp := range byMeasurement {
			if payload, err := lineproto.Encode(mp); err == nil {
				r.cfg.Publisher.Publish("metrics/"+sanitizeTopic(meas), payload)
			}
		}
	}
	return nil
}

// hostJobs memoizes the job registry for one batch: each distinct
// hostname of the batch is looked up once, under one read lock, however
// many points it sent.
type hostJobs struct {
	hosts []string
	jobs  []*Job
}

// maxHostJobs bounds the memo: a batch from more hosts than this (a
// gateway's, not an agent's) looks the rest up per point.
const maxHostJobs = 16

// of returns the newest job running on host, nil for none or no host.
func (h *hostJobs) of(reg *JobRegistry, host string) *Job {
	if host == "" {
		return nil
	}
	for i := len(h.hosts) - 1; i >= 0; i-- {
		if h.hosts[i] == host {
			return h.jobs[i]
		}
	}
	job := reg.Lookup(host)
	if len(h.hosts) < maxHostJobs {
		h.hosts = append(h.hosts, host)
		h.jobs = append(h.jobs, job)
	}
	return job
}

// forward is the one door to the primary sink, for metrics and job events
// alike: the group forward, then the forwarded/dropped accounting of this
// caller's points.
func (r *Router) forward(ctx context.Context, sp *obs.Span, pts []lineproto.Point) error {
	if err := r.fwd.forward(ctx, sp, pts); err != nil {
		r.dropped.Add(int64(len(pts)))
		return err
	}
	r.forwarded.Add(int64(len(pts)))
	return nil
}

func sanitizeTopic(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

// JobSignal is the JSON payload of the job start/end endpoints. The
// scheduler (or its prolog/epilog scripts) posts it at (de)allocation
// (paper Sect. III-A: "the compute nodes or a central management server
// must send signals at (de)allocation of a job").
type JobSignal struct {
	JobID string            `json:"jobid"`
	User  string            `json:"username,omitempty"`
	Nodes []string          `json:"nodes,omitempty"`
	Tags  map[string]string `json:"tags,omitempty"`
}

func decodeSignal(req *http.Request) (JobSignal, error) {
	var sig JobSignal
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		return sig, err
	}
	if err := json.Unmarshal(body, &sig); err != nil {
		return sig, err
	}
	if sig.JobID == "" {
		return sig, fmt.Errorf("missing jobid")
	}
	return sig, nil
}

func (r *Router) handleJobStart(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	sig, err := decodeSignal(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(sig.Nodes) == 0 {
		httpError(w, http.StatusBadRequest, "job start needs nodes")
		return
	}
	if err := r.JobStart(sig); err != nil {
		code := http.StatusBadRequest
		var dup errDuplicateJob
		if errors.As(err, &dup) {
			code = http.StatusConflict
		}
		httpError(w, code, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (r *Router) handleJobEnd(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	sig, err := decodeSignal(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := r.JobEnd(sig.JobID); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// JobStart registers a job: its tags attach to every participating node,
// the signal is forwarded into the database as an
// annotation event, and meta information is published. A signal whose tag
// set has an empty key or value is refused before anything is registered:
// every point of its nodes would carry that tag, and a store refuses it.
func (r *Router) JobStart(sig JobSignal) error {
	now := r.cfg.Now()
	tags := map[string]string{"jobid": sig.JobID}
	if sig.User != "" {
		tags["username"] = sig.User
	}
	for k, v := range sig.Tags {
		tags[k] = v
	}
	for k, v := range tags {
		if k == "" || v == "" {
			return fmt.Errorf("router: job %q: tag %q=%q: empty tag key or value", sig.JobID, k, v)
		}
	}
	job := &Job{
		ID:    sig.JobID,
		User:  sig.User,
		Nodes: append([]string(nil), sig.Nodes...),
		Tags:  tags,
		Start: now,
	}
	if err := r.jobs.Start(job); err != nil {
		return err
	}
	r.writeEvent("jobstart", job, now)
	r.publishMeta("meta/jobstart", job)
	return nil
}

// JobEnd deregisters a job: its tags leave its nodes, the end annotation
// is stored, meta information is published.
func (r *Router) JobEnd(jobID string) error {
	now := r.cfg.Now()
	job, err := r.jobs.End(jobID, now)
	if err != nil {
		return err
	}
	r.writeEvent("jobend", job, now)
	r.publishMeta("meta/jobend", job)
	return nil
}

// writeEvent stores the signal as an annotation event in the primary
// database ("received signals are forwarded into the database to be used
// later as annotations in the graphs").
func (r *Router) writeEvent(kind string, job *Job, now time.Time) {
	nodes := strings.Join(job.Nodes, ",")
	tags := map[string]string{"jobid": job.ID, "type": kind}
	if job.User != "" {
		tags["username"] = job.User
	}
	ev := lineproto.NewPoint("events", tags, map[string]lineproto.Value{
		"text": lineproto.String(fmt.Sprintf("%s job %s user %s nodes %s", kind, job.ID, job.User, nodes)),
	}, now)
	// An annotation is best-effort: the job is registered either way, and a
	// refused event shows as a dropped point.
	_ = r.forward(context.Background(), nil, []lineproto.Point{ev})
}

func (r *Router) publishMeta(topic string, job *Job) {
	if r.cfg.Publisher == nil {
		return
	}
	payload, err := json.Marshal(job)
	if err != nil {
		return
	}
	r.cfg.Publisher.Publish(topic, payload)
}

func (r *Router) handleJobs(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	running := r.jobs.Running()
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(running)
}

func (r *Router) handleJobInfo(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(req.URL.Path, "/api/job/")
	job, ok := r.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(job)
}
