package router

// Tests of the group forward (forward.go) against fake primary sinks that
// hold each write until the test lets it go. They are meant to run under
// the race detector, many times over.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
)

// heldSink records every write and holds it until released: one token on
// release lets one write return, closing release lets every write through.
// A batch holding a point of measurement "bad" is refused, and so is a
// write whose context is done (what an HTTP client does).
type heldSink struct {
	entered chan []lineproto.Point
	release chan struct{}

	mu      sync.Mutex
	batches [][]lineproto.Point
}

func newHeldSink() *heldSink {
	// entered is buffered past the most writes any test makes (ten), so a
	// write no test waits for never blocks on it.
	return &heldSink{entered: make(chan []lineproto.Point, 16), release: make(chan struct{})}
}

func (s *heldSink) WritePoints(pts []lineproto.Point) error {
	return s.WritePointsContext(context.Background(), pts)
}

func (s *heldSink) WritePointsContext(ctx context.Context, pts []lineproto.Point) error {
	s.mu.Lock()
	s.batches = append(s.batches, pts)
	s.mu.Unlock()
	s.entered <- pts
	<-s.release
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, p := range pts {
		if p.Measurement == "bad" {
			return errors.New("refused")
		}
	}
	return nil
}

func (s *heldSink) writes() [][]lineproto.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]lineproto.Point(nil), s.batches...)
}

// enteredWrite waits for the next write to reach the sink.
func (s *heldSink) enteredWrite(t *testing.T) []lineproto.Point {
	t.Helper()
	select {
	case pts := <-s.entered:
		return pts
	case <-time.After(10 * time.Second):
		t.Fatal("no write reached the sink")
		return nil
	}
}

// waitQueued waits until n callers queue behind the forward in flight.
func waitQueued(t *testing.T, r *Router, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		r.fwd.mu.Lock()
		got := 0
		if r.fwd.waiting != nil {
			got = len(r.fwd.waiting.shares)
		}
		r.fwd.mu.Unlock()
		if got == n {
			return
		}
	}
	t.Fatalf("%d callers never queued", n)
}

// ingestAsync runs IngestContext on its own goroutine; the channel yields
// its verdict.
func ingestAsync(ctx context.Context, r *Router, pts []lineproto.Point) <-chan error {
	done := make(chan error, 1)
	go func() { done <- r.IngestContext(ctx, pts) }()
	return done
}

func newForwardRouter(t *testing.T, sink Sink) *Router {
	t.Helper()
	r, err := New(Config{Primary: sink, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestForwardGroupsBehindInFlight: N small callers that arrive while a
// forward is in flight make exactly one more sink write, with all their
// points, and none of them is acked before that write returns.
func TestForwardGroupsBehindInFlight(t *testing.T) {
	const n = 5
	sink := newHeldSink()
	r := newForwardRouter(t, sink)
	first := ingestAsync(context.Background(), r, concBatch("cpu", "h0", 0, 1))
	sink.enteredWrite(t)

	var followers []<-chan error
	for i := 0; i < n; i++ {
		followers = append(followers, ingestAsync(context.Background(), r, concBatch("cpu", fmt.Sprintf("h%d", i+1), 0, 2)))
		waitQueued(t, r, i+1)
	}
	sink.release <- struct{}{} // the first forward returns
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := len(sink.enteredWrite(t)); got != 2*n {
		t.Fatalf("group write holds %d points, want %d", got, 2*n)
	}
	for i, done := range followers {
		select {
		case err := <-done:
			t.Fatalf("caller %d acked (%v) before its group's write returned", i, err)
		default:
		}
	}
	sink.release <- struct{}{}
	for i, done := range followers {
		if err := <-done; err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := len(sink.writes()); got != 2 {
		t.Fatalf("%d sink writes, want 2", got)
	}
	if got := r.fwd.forwards.Load(); got != 2 {
		t.Fatalf("forwards = %d, want 2", got)
	}
	if _, fwd, drop := r.Stats(); fwd != 1+2*n || drop != 0 {
		t.Fatalf("forwarded %d dropped %d, want %d and 0", fwd, drop, 1+2*n)
	}
}

// TestForwardLoneCallerNeverWaits: a caller that finds no forward in
// flight writes its own batch at once, and nothing is left pending once it
// returns — no timer holds points back for company.
func TestForwardLoneCallerNeverWaits(t *testing.T) {
	sink := newHeldSink()
	close(sink.release)
	r := newForwardRouter(t, sink)
	for i := 0; i < 10; i++ {
		pts := concBatch("cpu", "h1", i, 1)
		if err := r.IngestContext(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
		writes := sink.writes()
		if len(writes) != i+1 || len(writes[i]) != 1 || !writes[i][0].Time.Equal(pts[0].Time) {
			t.Fatalf("call %d: sink holds %d writes, want %d each of the caller's own point", i, len(writes), i+1)
		}
		r.fwd.mu.Lock()
		busy, waiting := r.fwd.busy, r.fwd.waiting
		r.fwd.mu.Unlock()
		if busy || waiting != nil {
			t.Fatalf("call %d: forwarder left busy=%v waiting=%v", i, busy, waiting)
		}
	}
}

// TestForwardRefusedShareResentAlone: a group whose write is refused
// because of one caller's points re-sends each share alone, so the other
// callers get 204 and their points arrive, the refused caller gets its
// error, and only its points count as dropped.
func TestForwardRefusedShareResentAlone(t *testing.T) {
	sink := newHeldSink()
	r := newForwardRouter(t, sink)
	first := ingestAsync(context.Background(), r, concBatch("cpu", "h0", 0, 1))
	sink.enteredWrite(t)

	good1 := ingestAsync(context.Background(), r, concBatch("cpu", "h1", 0, 2))
	waitQueued(t, r, 1)
	bad := ingestAsync(context.Background(), r, concBatch("bad", "h2", 0, 3))
	waitQueued(t, r, 2)
	good2 := ingestAsync(context.Background(), r, concBatch("cpu", "h3", 0, 2))
	waitQueued(t, r, 3)
	close(sink.release)

	for name, done := range map[string]<-chan error{"first": first, "good1": good1, "good2": good2} {
		if err := <-done; err != nil {
			t.Fatalf("%s failed for another caller's points: %v", name, err)
		}
	}
	if err := <-bad; err == nil {
		t.Fatal("the refused caller was acked")
	}
	// first, the refused group, then each of its three shares alone.
	writes := sink.writes()
	if len(writes) != 5 || len(writes[1]) != 7 {
		t.Fatalf("sink writes %v, want 5 with the group of 7 second", writes)
	}
	arrived := map[string]int{}
	for _, w := range writes[2:] {
		if w[0].Measurement != "bad" {
			arrived[w[0].Tag("hostname")] += len(w)
		}
	}
	if arrived["h1"] != 2 || arrived["h3"] != 2 {
		t.Fatalf("re-sent good shares %v, want h1 and h3 with 2 points each", arrived)
	}
	if _, fwd, drop := r.Stats(); fwd != 5 || drop != 3 {
		t.Fatalf("forwarded %d dropped %d, want 5 and 3", fwd, drop)
	}
}

// TestForwardBigBatchesInParallel: a batch of groupPoints or more skips
// the queue, so two of them are in the sink at the same time — and a
// small batch that arrives meanwhile finds no small forward in flight and
// goes at once too.
func TestForwardBigBatchesInParallel(t *testing.T) {
	sink := newHeldSink()
	r := newForwardRouter(t, sink)
	a := ingestAsync(context.Background(), r, concBatch("cpu", "h1", 0, groupPoints))
	b := ingestAsync(context.Background(), r, concBatch("cpu", "h2", 0, groupPoints+36))
	sink.enteredWrite(t)
	sink.enteredWrite(t)
	small := ingestAsync(context.Background(), r, concBatch("cpu", "h3", 0, 1))
	sink.enteredWrite(t)
	close(sink.release)
	for _, done := range []<-chan error{a, b, small} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.writes()); got != 3 {
		t.Fatalf("%d sink writes, want 3", got)
	}
}

// TestForwardPastGroupPointsGoesAtOnce: a small batch that would take the
// waiting group past groupPoints does not join it; it writes at once,
// beside the forward in flight.
func TestForwardPastGroupPointsGoesAtOnce(t *testing.T) {
	sink := newHeldSink()
	r := newForwardRouter(t, sink)
	first := ingestAsync(context.Background(), r, concBatch("cpu", "h0", 0, 1))
	sink.enteredWrite(t)
	queued := ingestAsync(context.Background(), r, concBatch("cpu", "h1", 0, groupPoints-1))
	waitQueued(t, r, 1)
	extra := ingestAsync(context.Background(), r, concBatch("cpu", "h2", 0, 2))
	if got := len(sink.enteredWrite(t)); got != 2 {
		t.Fatalf("second write in the sink holds %d points, want the 2 that did not fit", got)
	}
	close(sink.release)
	for _, done := range []<-chan error{first, queued, extra} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.writes()); got != 3 {
		t.Fatalf("%d sink writes, want 3", got)
	}
}

// TestForwardCancelledLeaderDeliversFollowers: the group's write runs
// under the leader's context without its cancellation, so a leader whose
// client hung up still delivers its followers' points.
func TestForwardCancelledLeaderDeliversFollowers(t *testing.T) {
	sink := newHeldSink()
	r := newForwardRouter(t, sink)
	first := ingestAsync(context.Background(), r, concBatch("cpu", "h0", 0, 1))
	sink.enteredWrite(t)

	ctx, cancel := context.WithCancel(context.Background())
	leader := ingestAsync(ctx, r, concBatch("cpu", "h1", 0, 1))
	waitQueued(t, r, 1)
	follower := ingestAsync(context.Background(), r, concBatch("cpu", "h2", 0, 1))
	waitQueued(t, r, 2)
	cancel()
	close(sink.release)
	for _, done := range []<-chan error{first, leader, follower} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	writes := sink.writes()
	if len(writes) != 2 || len(writes[1]) != 2 || writes[1][1].Tag("hostname") != "h2" {
		t.Fatalf("sink writes %v, want the follower's point in the group write", writes)
	}
}

// TestForwardGroupSpans: every router.forward span says how many callers
// shared its write, and a follower's names the trace that carried its
// points downstream.
func TestForwardGroupSpans(t *testing.T) {
	sink := newHeldSink()
	ring := obs.NewTraceRing(16)
	r := newForwardRouter(t, sink)
	traced := func(id string) context.Context {
		return obs.WithTrace(context.Background(), ring.StartTrace("test", id))
	}
	first := ingestAsync(traced("0000000000000001"), r, concBatch("cpu", "h0", 0, 1))
	sink.enteredWrite(t)
	leaderCtx, followerCtx := traced("0000000000000002"), traced("0000000000000003")
	leader := ingestAsync(leaderCtx, r, concBatch("cpu", "h1", 0, 1))
	waitQueued(t, r, 1)
	follower := ingestAsync(followerCtx, r, concBatch("cpu", "h2", 0, 1))
	waitQueued(t, r, 2)
	close(sink.release)
	for _, done := range []<-chan error{first, leader, follower} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	obs.TraceFrom(leaderCtx).Finish()
	obs.TraceFrom(followerCtx).Finish()
	for id, want := range map[string][2]string{
		"0000000000000002": {"2", ""},
		"0000000000000003": {"2", "0000000000000002"},
	} {
		td, ok := ring.Find(id)
		if !ok {
			t.Fatalf("trace %s not in the ring", id)
		}
		var fwd *obs.SpanData
		for i := range td.Spans {
			if td.Spans[i].Name == "router.forward" {
				fwd = &td.Spans[i]
			}
		}
		if fwd == nil || fwd.Attr("group") != want[0] || fwd.Attr("trace") != want[1] {
			t.Fatalf("trace %s: router.forward span %+v, want group=%s trace=%q", id, fwd, want[0], want[1])
		}
	}
}
