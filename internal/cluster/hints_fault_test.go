package cluster

// Fault-injection coverage of the hint queue (ISSUE 8 chaos satellite,
// queue half): the durable handoff log under a failing disk and power
// cuts. The two-sided acked-prefix oracle from the storage chaos suite
// applies unchanged: an acknowledged hint must survive crash + reopen,
// and a recovered hint must come from the attempted prefix — the queue
// may keep an unacknowledged hint (fault after the bytes landed) but may
// never lose an acknowledged one or invent one.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

var errInjected = errors.New("injected I/O error")

// testFrame is a replica share as writeNode puts it on the wire and the
// queue parks it: n points of one measurement in the durable batch codec
// (testPoints carry one tag, so equal arguments give equal bytes).
func testFrame(measurement, host string, n int) []byte {
	return durable.AppendBatch(nil, testPoints(measurement, host, n), 1e9)
}

// frameMeasurement names the first point of a parked frame; a frame that
// does not read is "".
func frameMeasurement(frame []byte) string {
	var c durable.BatchCursor
	c.Reset(frame)
	if !c.Next() {
		return ""
	}
	return string(c.Measurement)
}

// hintScenario opens a queue on fs and enqueues n hints with measurements
// m0..m(n-1), returning how many enqueues acked. openErr reports an open
// that failed under injection.
func hintScenario(fs *faultfs.FS, n int) (acked int, openErr error) {
	q, err := openHintQueue("hints", "http://peer:8086", durable.Options{FS: fs})
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if err := q.enqueue("lms", testFrame(fmt.Sprintf("m%d", i), "h1", 2)); err != nil {
			break
		}
		acked++
	}
	return acked, nil
}

// recover reopens the queue with injection cleared and returns the
// recovered hints in order.
func recoverHints(t *testing.T, fs *faultfs.FS) []hint {
	t.Helper()
	fs.SetInject(nil)
	q, err := openHintQueue("hints", "http://peer:8086", durable.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen after crash failed: %v", err)
	}
	defer q.close()
	return q.pending
}

func TestHintQueueFaultSweep(t *testing.T) {
	const batches = 5
	// Rehearse fault-free to learn the scenario length.
	dry := faultfs.New()
	if acked, err := hintScenario(dry, batches); err != nil || acked != batches {
		t.Fatalf("dry run: acked=%d err=%v", acked, err)
	}
	total := dry.Ops()

	for idx := int64(0); idx < total; idx++ {
		fs := faultfs.New()
		fs.FailOp(idx, errInjected)
		acked, openErr := hintScenario(fs, batches)
		fs.Crash()
		got := recoverHints(t, fs)

		if openErr != nil && acked != 0 {
			t.Fatalf("op %d: open failed yet %d hints acked", idx, acked)
		}
		if len(got) < acked {
			t.Fatalf("op %d: acked %d hints, only %d survived crash", idx, acked, len(got))
		}
		if len(got) > batches {
			t.Fatalf("op %d: %d hints recovered, only %d attempted", idx, len(got), batches)
		}
		// Recovered hints must be the attempted prefix, byte-exact.
		for i, h := range got {
			if h.db != "lms" || !bytes.Equal(h.frame, testFrame(fmt.Sprintf("m%d", i), "h1", 2)) {
				t.Fatalf("op %d: hint %d corrupted: db=%q frame=%x", idx, i, h.db, h.frame)
			}
		}
	}
}

// TestHintQueueKillSweep cuts the power at every op index instead of
// failing one op: everything after the cut is lost, the acked prefix is
// not.
func TestHintQueueKillSweep(t *testing.T) {
	const batches = 4
	dry := faultfs.New()
	if _, err := hintScenario(dry, batches); err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()

	for idx := int64(0); idx < total; idx++ {
		fs := faultfs.New()
		fs.KillAtOp(idx)
		acked, _ := hintScenario(fs, batches)
		fs.Crash()
		got := recoverHints(t, fs)
		if len(got) < acked {
			t.Fatalf("kill at op %d: acked %d hints, only %d recovered", idx, acked, len(got))
		}
		for i, h := range got {
			if m := frameMeasurement(h.frame); m != fmt.Sprintf("m%d", i) {
				t.Fatalf("kill at op %d: recovered hint %d out of order: %q", idx, i, m)
			}
		}
	}
}

// TestHintQueueCrashMidDrain: a coordinator crash between partial drain
// and queue-empty keeps every undelivered hint AND re-replays the
// delivered prefix — at-least-once, made convergent by the store upsert.
func TestHintQueueCrashMidDrain(t *testing.T) {
	fs := faultfs.New()
	q, err := openHintQueue("hints", "http://peer:8086", durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.enqueue("lms", testFrame(fmt.Sprintf("m%d", i), "h1", 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Peer accepts one batch, then fails again.
	delivered := 0
	_, err = q.drain(func(db string, frame []byte) error {
		if delivered == 1 {
			return errors.New("peer down again")
		}
		delivered++
		return nil
	})
	if err == nil || delivered != 1 {
		t.Fatalf("drain: delivered=%d err=%v", delivered, err)
	}
	if n, _ := q.depth(); n != 2 {
		t.Fatalf("depth after partial drain: %d", n)
	}

	fs.Crash()
	got := recoverHints(t, fs)
	// The WAL only truncates on a fully drained queue, so the restart
	// replays all three — including the one already delivered.
	if len(got) != 3 {
		t.Fatalf("recovered %d hints after mid-drain crash, want 3", len(got))
	}
}

// TestHintQueueReclaimsDiskAfterDrain: a fully drained queue rotates its
// WAL and removes the drained segments — a healed cluster returns to
// zero hint bytes on disk.
func TestHintQueueReclaimsDiskAfterDrain(t *testing.T) {
	fs := faultfs.New()
	q, err := openHintQueue("hints", "http://peer:8086", durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.enqueue("lms", testFrame(fmt.Sprintf("m%d", i), "h1", 2)); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := q.drain(func(string, []byte) error { return nil })
	if err != nil || replayed != 3 {
		t.Fatalf("drain: replayed=%d err=%v", replayed, err)
	}
	// Reopen: nothing must come back.
	if err := q.close(); err != nil {
		t.Fatal(err)
	}
	got := recoverHints(t, fs)
	if len(got) != 0 {
		t.Fatalf("drained queue recovered %d stale hints", len(got))
	}
}

// TestHintQueueConcurrentDrain: the background drain loop and DrainHints
// may drain one queue at the same moment (a write's kickDrain wakes the
// loop whenever it likes). Each hint popped must be the hint that drain
// sent: with two unserialized drains both send hint 0 and both pop, so
// hint 1 is discarded unsent — an acknowledged write that never reaches
// its replica.
func TestHintQueueConcurrentDrain(t *testing.T) {
	q, err := openHintQueue("", "http://peer:8086", durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const hints = 20
	for i := 0; i < hints; i++ {
		if err := q.enqueue("lms", testFrame(fmt.Sprintf("m%d", i), "h1", 1)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	delivered := map[string]int{}
	slowSend := func(_ string, frame []byte) error {
		time.Sleep(time.Millisecond) // a peer slow enough for the drains to overlap
		mu.Lock()
		delivered[frameMeasurement(frame)]++
		mu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.drain(slowSend); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < hints; i++ {
		if delivered[fmt.Sprintf("m%d", i)] == 0 {
			t.Fatalf("hint %d was popped without ever being sent (delivered: %v)", i, delivered)
		}
	}
	if n, b := q.depth(); n != 0 || b != 0 {
		t.Fatalf("drained queue reports depth %d, %d bytes", n, b)
	}
}

// TestHintQueueRefusesInvalidFrames: the queue checks a frame with the
// check the peer's frame door runs (durable.CheckBatch), going in and
// coming back. A frame holding a point the peer would answer 400 to — no
// fields, an empty tag value — is refused at enqueue, and a log that holds
// one (written before the check existed) fails the open with the named
// error, instead of parking at the head of the queue and stalling every
// hint behind it for good.
func TestHintQueueRefusesInvalidFrames(t *testing.T) {
	v := map[string]lineproto.Value{"value": lineproto.Float(1)}
	bad := map[string][]byte{
		"no fields":       durable.AppendBatch(nil, []lineproto.Point{{Measurement: "m", Tags: map[string]string{"hostname": "h1"}}}, 1),
		"empty tag value": durable.AppendBatch(nil, []lineproto.Point{{Measurement: "m", Tags: map[string]string{"hostname": ""}, Fields: v}}, 1),
	}
	for name, frame := range bad {
		root := t.TempDir()
		const peer = "http://peer:8086"
		q, err := openHintQueue(root, peer, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.enqueue("lms", frame); !errors.Is(err, durable.ErrInvalidPoint) {
			t.Fatalf("%s: enqueue: %v, want durable.ErrInvalidPoint", name, err)
		}
		if err := q.enqueue("lms", testFrame("m0", "h1", 2)); err != nil {
			t.Fatal(err)
		}
		if n, _ := q.depth(); n != 1 {
			t.Fatalf("%s: %d hints pending, want the valid one only", name, n)
		}
		if err := q.close(); err != nil {
			t.Fatal(err)
		}

		// The same frame, put into the log behind the queue's back.
		w, err := durable.OpenWAL(q.dir, 0, durable.Options{}, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Append(encodeHint("lms", frame)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := openHintQueue(root, peer, durable.Options{}); !errors.Is(err, durable.ErrInvalidPoint) {
			t.Fatalf("%s: open over a log holding the frame: %v, want durable.ErrInvalidPoint", name, err)
		}
	}
}
