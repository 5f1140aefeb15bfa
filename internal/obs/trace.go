package obs

// Distributed request tracing (DESIGN.md §14). A Trace is one request's
// journey through the stack — router ingest, cluster fan-out, storage
// phases — recorded as flat spans with nanosecond timings and key=value
// attributes. Traces ride a context.Context within a process and the
// X-Lms-Trace HTTP header across processes, so the router, a cluster
// coordinator and the chosen replica all stamp the same trace id; each
// process keeps its completed traces in a bounded TraceRing served as
// JSON on GET /debug/traces.
//
// The design goal is zero cost when tracing is off. A nil TraceRing
// hands out no Trace, and every instrumentation point goes through
// nil-safe methods: TraceFrom on a context without a trace returns nil,
// and calling Start/Attr/End/Finish on a nil *Trace or *Span is a no-op
// that performs zero allocations — the hot paths carry bare pointer tests,
// not branches on configuration.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header that propagates a trace id between the
// router, cluster coordinators and storage nodes.
const TraceHeader = "X-Lms-Trace"

// Attr is one key=value annotation on a span.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed operation inside a trace. A span is owned by the
// goroutine that started it until End; the trace serializes the set.
type Span struct {
	name    string
	startNS int64
	endNS   int64
	attrs   []Attr
}

// Trace is one in-flight request being recorded. Create through
// TraceRing.StartTrace; a nil *Trace is a valid no-op recorder.
type Trace struct {
	id   string
	name string

	ring    *TraceRing
	startNS int64

	mu    sync.Mutex
	spans []*Span
	done  bool
}

// ID returns the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span. Nil-safe: on a nil trace it returns a nil span,
// costing nothing.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{name: name, startNS: time.Now().UnixNano()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Attr annotates the span. Nil-safe; returns the span for chaining.
func (s *Span) Attr(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	return s
}

// AttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) AttrInt(key string, val int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: strconv.FormatInt(val, 10)})
	return s
}

// End closes the span and returns its duration in nanoseconds — the same
// two clock reads the completed trace reports as the span's dur_ns, so a
// caller that also keeps its own per-phase figure (EXPLAIN ANALYZE) needs
// no second clock. Nil-safe: a nil span reads no clock and returns 0.
func (s *Span) End() int64 {
	if s == nil {
		return 0
	}
	s.endNS = time.Now().UnixNano()
	return s.endNS - s.startNS
}

// Finish completes the trace and publishes it to its ring. Spans still
// open are closed at the finish time. Finishing twice (or finishing a
// nil trace) is a no-op.
func (t *Trace) Finish() {
	if t == nil || t.ring == nil {
		return
	}
	endNS := time.Now().UnixNano()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	spans := t.spans
	t.mu.Unlock()
	d := TraceData{
		ID:         t.id,
		Name:       t.name,
		StartUnix:  t.startNS,
		DurationNS: endNS - t.startNS,
	}
	for _, sp := range spans {
		sd := SpanData{
			Name:    sp.name,
			StartNS: sp.startNS - t.startNS,
		}
		end := sp.endNS
		if end == 0 {
			end = endNS
		}
		sd.DurNS = end - sp.startNS
		sd.Attrs = sp.attrs
		d.Spans = append(d.Spans, sd)
	}
	sort.SliceStable(d.Spans, func(i, j int) bool { return d.Spans[i].StartNS < d.Spans[j].StartNS })
	t.ring.push(d)
}

// TraceData is one completed trace as stored in the ring and rendered on
// /debug/traces.
type TraceData struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	StartUnix  int64      `json:"start_unix_ns"`
	DurationNS int64      `json:"duration_ns"`
	Spans      []SpanData `json:"spans"`
}

// SpanData is one completed span; StartNS is the offset from the trace
// start.
type SpanData struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the first attribute with that key ("" when
// absent) — a test convenience.
func (s SpanData) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TraceRing keeps the last N completed traces of one process, newest
// overwriting oldest, and serves them as JSON on GET /debug/traces
// (newest first; ?min_dur=10ms filters short traces, ?limit=n caps the
// count). A nil *TraceRing is valid and permanently disabled.
type TraceRing struct {
	idc atomic.Uint64

	mu   sync.Mutex
	buf  []TraceData
	next int // next slot to overwrite
	n    int // occupied slots
}

// NewTraceRing returns a ring holding the last capacity traces
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceData, capacity)}
}

// StartTrace begins recording a trace. id continues an upstream trace
// (the X-Lms-Trace header); empty generates a fresh id. Returns nil —
// the no-op recorder — when the ring is nil.
func (r *TraceRing) StartTrace(name, id string) *Trace {
	if r == nil {
		return nil
	}
	if id == "" {
		id = r.newID()
	}
	return &Trace{id: id, name: name, ring: r, startNS: time.Now().UnixNano()}
}

// newID returns a 16-hex-digit random trace id (counter fallback if the
// system randomness fails).
func (r *TraceRing) newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "t" + strconv.FormatUint(r.idc.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

func (r *TraceRing) push(d TraceData) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns completed traces newest-first, dropping traces
// shorter than minDur and capping the result at limit (<=0: no cap).
func (r *TraceRing) Snapshot(minDur time.Duration, limit int) []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceData, 0, r.n)
	for i := 0; i < r.n; i++ {
		// newest is the slot just before next
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		d := r.buf[idx]
		if d.DurationNS < int64(minDur) {
			continue
		}
		out = append(out, d)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Find returns the newest completed trace with that id (test
// convenience).
func (r *TraceRing) Find(id string) (TraceData, bool) {
	for _, d := range r.Snapshot(0, 0) {
		if d.ID == id {
			return d, true
		}
	}
	return TraceData{}, false
}

// ServeHTTP renders the ring as a JSON array, newest first. Query
// parameters: min_dur (Go duration, e.g. 250ms) and limit.
func (r *TraceRing) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var minDur time.Duration
	if v := req.URL.Query().Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "bad min_dur: "+err.Error(), http.StatusBadRequest)
			return
		}
		minDur = d
	}
	limit := 0
	if v := req.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(r.Snapshot(minDur, limit))
}

// --- context plumbing ------------------------------------------------------

type traceKey struct{}

// WithTrace attaches the trace to the context. Attaching nil returns ctx
// unchanged, so callers can pass through the disabled case for free.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil. The lookup key is a
// zero-size type, so the call allocates nothing.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// --- debug listener --------------------------------------------------------

// DebugMux builds the mux served on the -debug-addr listener of lms-db
// and lms-router: the net/http/pprof profiling endpoints plus (when ring
// is non-nil) GET /debug/traces. A separate mux keeps profiling off the
// ingest port.
func DebugMux(ring *TraceRing) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if ring != nil {
		mux.Handle("/debug/traces", ring)
	}
	return mux
}
