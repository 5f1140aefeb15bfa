package router

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/lineproto"
	"repro/internal/obs"
)

// groupPoints is the batch size from which a primary forward goes to the
// sink at once instead of queueing behind the forward in flight (DESIGN.md
// §1 "Group forward"). A downstream request costs a fixed share (HTTP,
// parse, WAL frame, fsync, ring split) plus a per-point share; grouping
// pays off while the fixed share dominates, and a caller that waits for a
// forward it is not part of should bring few enough points that the wait
// is cheap. Host cycles (100 lines), backfill and preloads stay parallel.
const groupPoints = 64

// forwarder writes to the router's primary sink through a leader/follower
// group forward, shaped like the WAL's group commit (durable.WAL
// syncThrough). A small batch that finds no forward in flight goes at
// once; one that arrives while a forward is in flight queues, and when
// that forward returns, the first queued caller writes every queued
// caller's points in one sink write. There is no timer and no goroutine:
// a lone caller never waits.
type forwarder struct {
	sink     Sink
	forwards atomic.Int64 // sink writes, for lms_router_forwards_total

	mu      sync.Mutex
	busy    bool      // a small forward is in flight
	waiting *fwdGroup // callers queued behind it; nil while none are
}

// fwdGroup is the callers queued behind one forward in flight. Its shares
// are appended under forwarder.mu and read only after ready is closed,
// when the group is detached and no longer grows.
type fwdGroup struct {
	shares [][]lineproto.Point
	points int
	ready  chan struct{} // closed when the leader may write
	done   chan struct{} // closed when the group's write returned

	err   error  // the group write's verdict, set before done closes
	trace string // the leader's trace id: it carried every share
}

// write is one sink write, counted.
func (f *forwarder) write(ctx context.Context, pts []lineproto.Point) error {
	f.forwards.Add(1)
	return writeSink(ctx, f.sink, pts)
}

// forward delivers pts to the sink, alone or in a group, and returns this
// caller's own verdict. sp (the caller's router.forward span; nil is fine)
// gains the number of callers in the write and, on a follower, the id of
// the trace that carried its points.
func (f *forwarder) forward(ctx context.Context, sp *obs.Span, pts []lineproto.Point) error {
	f.mu.Lock()
	g := f.waiting
	if len(pts) >= groupPoints || (g != nil && g.points+len(pts) > groupPoints) {
		// Too many points to wait for company: write beside whatever is in
		// flight, and leave the queue to the small batches.
		f.mu.Unlock()
		sp.AttrInt("group", 1)
		return f.write(ctx, pts)
	}
	if !f.busy {
		f.busy = true
		f.mu.Unlock()
		sp.AttrInt("group", 1)
		err := f.write(ctx, pts)
		f.next()
		return err
	}
	if g == nil {
		g = &fwdGroup{ready: make(chan struct{}), done: make(chan struct{})}
		f.waiting = g
	}
	leader := len(g.shares) == 0
	g.shares = append(g.shares, pts)
	g.points += len(pts)
	f.mu.Unlock()

	if leader {
		<-g.ready
		all := pts
		if len(g.shares) > 1 {
			all = make([]lineproto.Point, 0, g.points)
			for _, s := range g.shares {
				all = append(all, s...)
			}
		}
		// The followers' points ride the leader's trace, but not its
		// cancellation: a leader whose client hung up keeps delivering.
		g.trace = obs.TraceFrom(ctx).ID()
		g.err = f.write(context.WithoutCancel(ctx), all)
		close(g.done)
		f.next()
	} else {
		<-g.done
	}
	sp.AttrInt("group", int64(len(g.shares)))
	if g.err != nil && len(g.shares) > 1 {
		// A refused group: this share alone decides this caller's verdict.
		// Points of this share that did land are stored again beside the
		// first copy, not upserted (DESIGN.md §12 failure matrix).
		return f.write(ctx, pts)
	}
	if !leader && g.trace != "" {
		sp.Attr("trace", g.trace)
	}
	return g.err
}

// next hands the sink to the group queued behind the forward that just
// returned, or marks the forwarder idle.
func (f *forwarder) next() {
	f.mu.Lock()
	g := f.waiting
	f.waiting = nil
	f.busy = g != nil
	f.mu.Unlock()
	if g != nil {
		close(g.ready)
	}
}
