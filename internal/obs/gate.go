package obs

import (
	"sync/atomic"
)

// Gate is a bounded admission controller for ingest handlers: it tracks
// in-flight requests and in-flight body bytes against fixed budgets and
// refuses admission once either is exhausted. Handlers call Acquire before
// reading a request body and the returned release when the request is done;
// a refused acquisition is the signal to shed load (429 + Retry-After)
// instead of queueing unbounded work.
//
// Budgets of zero or below mean "unlimited" for that dimension, and a nil
// *Gate admits everything — callers need no branching for the unconfigured
// case.
//
// Admission is optimistic (add, check, undo on overflow): two racing
// requests may both briefly exceed the budget by one request before one
// backs out, which is harmless — the budget bounds memory within one
// request of the configured ceiling and never deadlocks.
type Gate struct {
	maxReqs  int64
	maxBytes int64
	reqs     atomic.Int64
	bytes    atomic.Int64
	shed     atomic.Uint64
}

// NewGate builds a gate admitting at most maxReqs concurrent requests and
// maxBytes summed in-flight body bytes. Either bound <= 0 is unlimited;
// both unlimited returns a working (but never-refusing) gate.
func NewGate(maxReqs, maxBytes int64) *Gate {
	return &Gate{maxReqs: maxReqs, maxBytes: maxBytes}
}

// Acquire admits one request carrying nbytes of body (0 when the length is
// unknown; such requests count against the request budget only). On success
// it returns ok=true and a release function that must be called exactly
// once when the request finishes. On refusal it returns ok=false, counts
// the shed, and the caller must not call release.
func (g *Gate) Acquire(nbytes int64) (release func(), ok bool) {
	if g == nil {
		return func() {}, true
	}
	if nbytes < 0 {
		nbytes = 0
	}
	if r := g.reqs.Add(1); g.maxReqs > 0 && r > g.maxReqs {
		g.reqs.Add(-1)
		g.shed.Add(1)
		return nil, false
	}
	if b := g.bytes.Add(nbytes); g.maxBytes > 0 && b > g.maxBytes {
		g.bytes.Add(-nbytes)
		g.reqs.Add(-1)
		g.shed.Add(1)
		return nil, false
	}
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			g.bytes.Add(-nbytes)
			g.reqs.Add(-1)
		}
	}, true
}

// InFlight returns the currently admitted request and byte counts.
func (g *Gate) InFlight() (reqs, bytes int64) {
	if g == nil {
		return 0, 0
	}
	return g.reqs.Load(), g.bytes.Load()
}

// Shed returns the number of refused acquisitions.
func (g *Gate) Shed() uint64 {
	if g == nil {
		return 0
	}
	return g.shed.Load()
}
