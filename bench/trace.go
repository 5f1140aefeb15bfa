package main

// The benchmark's own tracing. Spans are recorded from the benchmark's
// files only — HTTP middleware around each handler and wrappers around
// the adapter's sink and querier calls — kept in memory during the run
// and written out at its end. The spans of one request share its op id,
// which also rides the X-Lms-Trace header the program forwards.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names, by layer boundary. A span's parent is named, not pointed
// to: within one op a span name occurs once, except tsdb.serve_write
// (one per replica) and tsdb.serve_query (the door's, under
// loadgen.request, and the owner's, under cluster.query).
const (
	spanRequest    = "loadgen.request"
	spanRouter     = "router.serve"
	spanClusterW   = "cluster.write"
	spanServeWrite = "tsdb.serve_write"
	spanServeQuery = "tsdb.serve_query"
	spanClusterQ   = "cluster.query"
)

type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"` // request body size, where the span is an HTTP request
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer collects spans. A nil tracer records nothing, which is how a
// run with spans off is made.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record keeps one span. Work without an op id — the set-up traffic —
// belongs to no request and is not kept.
func (t *tracer) record(name, parent, op string, start, end time.Time, bytes int64) {
	if t == nil || op == "" {
		return
	}
	s := span{Name: name, Parent: parent, Op: op,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's: the part of the parent's time during which at
// least one child was running.
func coveredNS(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfNS is a span's own time: its duration minus what its children
// cover.
func selfNS(parent span, children []span) int64 {
	return parent.dur() - coveredNS(parent, children)
}

// breakdown is the per-op view of one span name: for each op that has a
// span called name, that span and its children (spans of the same op
// whose parent is name).
type breakdown struct {
	parent   span
	children []span
}

func (t *tracer) breakdowns(name string) []breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[string]*breakdown{}
	var order []string
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] = &breakdown{parent: s}
			order = append(order, s.Op)
		}
	}
	for _, s := range t.spans {
		if b := byOp[s.Op]; b != nil && s.Parent == name {
			b.children = append(b.children, s)
		}
	}
	out := make([]breakdown, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}
