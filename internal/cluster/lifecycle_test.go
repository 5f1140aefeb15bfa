package cluster

// Shutdown races of the coordinator (DESIGN.md §12): Close stops the drain
// and fan-out jobs and waits for them; the write path only ever kicks.

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// backgroundGoroutines returns the stacks, keyed by goroutine id, of every
// goroutine other than the caller that is inside non-test code of this
// module.
func backgroundGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		for l := 1; i > 0 && l+1 < len(lines); l++ { // i == 0 is the caller
			if strings.HasPrefix(lines[l], "repro/internal/") && !strings.Contains(lines[l+1], "_test.go:") {
				id, _, _ := strings.Cut(lines[0], " [")
				out[id] = g
				break
			}
		}
	}
	return out
}

// TestClusterCloseDuringWrites: writes racing Close succeed or return an
// error — the write path used to wg.Add a fan-out goroutine that could meet
// Close's wg.Wait — and nothing of the coordinator runs once Close returned.
// One replica is down throughout, so every write parks a hint (kicking the
// drain) and finds its database unconfirmed (kicking the fan-out).
func TestClusterCloseDuringWrites(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1, HintsDir: t.TempDir()})
	h.nodes[h.peers[0]].down.Store(true)

	before := backgroundGoroutines()
	coord, err := New(Config{
		Peers: h.peers, Replication: 2, WriteQuorum: 1, HintsDir: t.TempDir(),
		DrainInterval: time.Millisecond, HTTPClient: h.coord.httpc,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wrote, stop := make(chan struct{}, 64), make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := coord.SinkFor("race")
			for i := 0; ; i++ {
				_ = sink.WritePoints([]lineproto.Point{{
					Measurement: "cpu",
					Tags:        map[string]string{"hostname": "h1"},
					Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
					Time:        time.Unix(3000+int64(i), 0).UTC(),
				}})
				select {
				case wrote <- struct{}{}:
				case <-stop:
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		<-wrote
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // writes keep arriving after Close
		<-wrote
	}
	close(stop)
	wg.Wait()
	if err := coord.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The replicas' handlers finish on their own goroutines just after the
	// client has its answer: give those a moment, the coordinator none.
	var left map[string]string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		left = backgroundGoroutines()
		for id := range before {
			delete(left, id)
		}
		if len(left) == 0 {
			return
		}
	}
	for _, stack := range left {
		t.Errorf("goroutine survives Cluster.Close:\n%s", stack)
	}
}
