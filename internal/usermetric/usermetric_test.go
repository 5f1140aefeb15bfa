package usermetric

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

func fixedNow() time.Time { return time.Unix(500, 0).UTC() }

// collectSink gathers flushed payloads.
type collectSink struct {
	mu       sync.Mutex
	payloads [][]byte
	fail     int // fail this many sends
}

func (s *collectSink) send(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail > 0 {
		s.fail--
		return errors.New("sink down")
	}
	cp := append([]byte(nil), p...)
	s.payloads = append(s.payloads, cp)
	return nil
}

func (s *collectSink) points(t *testing.T) []lineproto.Point {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var pts []lineproto.Point
	for _, p := range s.payloads {
		got, err := lineproto.Parse(p)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, got...)
	}
	return pts
}

func newClient(t *testing.T, sink *collectSink, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		Sink:          sink.send,
		DefaultTags:   map[string]string{"hostname": "h1", "app": "test"},
		FlushInterval: -1, // manual flush
		Now:           fixedNow,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestMetricBufferedUntilFlush(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, nil)
	if err := c.Metric("pressure", 5.9, nil); err != nil {
		t.Fatal(err)
	}
	if len(sink.points(t)) != 0 {
		t.Fatal("sent before flush")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	pts := sink.points(t)
	if len(pts) != 1 {
		t.Fatalf("points %d", len(pts))
	}
	p := pts[0]
	if p.Measurement != "pressure" || fieldOf(p, "value").FloatVal() != 5.9 {
		t.Fatalf("%+v", p)
	}
	if p.Tag("hostname") != "h1" || p.Tag("app") != "test" {
		t.Fatalf("default tags %v", p.Tags)
	}
	if !p.Time.Equal(fixedNow()) {
		t.Fatalf("time %v", p.Time)
	}
}

func TestPerCallTags(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, nil)
	_ = c.Metric("runtime", 1.2, map[string]string{"tid": "3", "app": "override"})
	_ = c.Flush()
	p := sink.points(t)[0]
	if p.Tag("tid") != "3" {
		t.Fatalf("per-call tag missing: %v", p.Tags)
	}
	if p.Tag("app") != "override" {
		t.Fatalf("per-call tag should override default: %v", p.Tags)
	}
}

func TestMetricFields(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, nil)
	_ = c.MetricFields("minimd", map[string]lineproto.Value{
		"pressure":    lineproto.Float(5.9),
		"temperature": lineproto.Float(0.9),
		"energy":      lineproto.Float(-4.6),
	}, nil)
	_ = c.Flush()
	p := sink.points(t)[0]
	if len(p.Fields) != 3 {
		t.Fatalf("%+v", p.Fields)
	}
}

func TestEvent(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, nil)
	_ = c.Event("starting miniMD", map[string]string{"phase": "init"})
	_ = c.Flush()
	p := sink.points(t)[0]
	if p.Measurement != "events" {
		t.Fatalf("measurement %q", p.Measurement)
	}
	if fieldOf(p, "text").StringVal() != "starting miniMD" {
		t.Fatalf("%+v", p.Fields)
	}
	if p.Tag("phase") != "init" || p.Tag("hostname") != "h1" {
		t.Fatalf("%v", p.Tags)
	}
}

func TestBatchingSingleSend(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, nil)
	for i := 0; i < 10; i++ {
		_ = c.Metric("m", float64(i), nil)
	}
	_ = c.Flush()
	sink.mu.Lock()
	n := len(sink.payloads)
	sink.mu.Unlock()
	if n != 1 {
		t.Fatalf("expected 1 batched send, got %d", n)
	}
	if len(sink.points(t)) != 10 {
		t.Fatalf("points %d", len(sink.points(t)))
	}
}

func TestMaxBatchTriggersEarlyFlush(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, func(cfg *Config) { cfg.MaxBatch = 5 })
	for i := 0; i < 5; i++ {
		_ = c.Metric("m", float64(i), nil)
	}
	if got := len(sink.points(t)); got != 5 {
		t.Fatalf("auto flush points %d", got)
	}
}

func TestRetryOnFailure(t *testing.T) {
	sink := &collectSink{fail: 2}
	c := newClient(t, sink, nil)
	_ = c.Metric("m", 1, nil)
	if err := c.Flush(); err == nil {
		t.Fatal("expected error")
	}
	if err := c.Flush(); err == nil {
		t.Fatal("expected second error")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.points(t)); got != 1 {
		t.Fatalf("points after retry %d", got)
	}
	sent, dropped := c.Stats()
	if sent != 1 || dropped != 0 {
		t.Fatalf("stats %d %d", sent, dropped)
	}
}

func TestRetryLimitDrops(t *testing.T) {
	sink := &collectSink{fail: 100}
	c := newClient(t, sink, nil)
	_ = c.Metric("m", 1, nil)
	for i := 0; i < 5; i++ {
		_ = c.Flush()
	}
	_, dropped := c.Stats()
	if dropped != 1 {
		t.Fatalf("dropped %d", dropped)
	}
	// New metrics after the drop go through once the sink recovers.
	sink.mu.Lock()
	sink.fail = 0
	sink.mu.Unlock()
	_ = c.Metric("m2", 2, nil)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.points(t)); got != 1 {
		t.Fatalf("points %d", got)
	}
}

// TestOutageBoundsPending: while the endpoint is down, at most retryLimit
// failed payloads wait; every older one is dropped and counted, so an
// outage does not grow the monitored application.
func TestOutageBoundsPending(t *testing.T) {
	sink := &collectSink{fail: 1 << 30}
	c := newClient(t, sink, nil)
	for i := 0; i < 100; i++ {
		_ = c.Metric("m", float64(i), nil)
		if err := c.Flush(); err == nil {
			t.Fatal("flush to a failing sink succeeded")
		}
	}
	if _, dropped := c.Stats(); dropped < 100-retryLimit {
		t.Fatalf("dropped %d of 100 lines, want >= %d", dropped, 100-retryLimit)
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending > retryLimit {
		t.Fatalf("%d payloads pending, want <= %d", pending, retryLimit)
	}
}

func TestOrderPreservedAcrossRetry(t *testing.T) {
	sink := &collectSink{fail: 1}
	c := newClient(t, sink, nil)
	_ = c.Metric("a", 1, nil)
	_ = c.Flush() // fails, payload pending
	_ = c.Metric("b", 2, nil)
	_ = c.Flush() // sends pending "a" first, then "b"
	pts := sink.points(t)
	if len(pts) != 2 || pts[0].Measurement != "a" || pts[1].Measurement != "b" {
		t.Fatalf("order %+v", pts)
	}
}

func TestInvalidMetricRejected(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, nil)
	if err := c.Metric("", 1, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.MetricFields("m", nil, nil); err == nil {
		t.Fatal("no fields accepted")
	}
}

func TestBackgroundFlush(t *testing.T) {
	sink := &collectSink{}
	cfg := Config{
		Sink:          sink.send,
		FlushInterval: 10 * time.Millisecond,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.Metric("bg", 1, nil)
	deadline := time.After(5 * time.Second)
	for len(sink.points(t)) == 0 {
		select {
		case <-deadline:
			t.Fatal("background flush never happened")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestCloseFlushesAndIsIdempotent(t *testing.T) {
	sink := &collectSink{}
	cfg := Config{Sink: sink.send, FlushInterval: time.Hour}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Metric("final", 1, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.points(t)) != 1 {
		t.Fatal("close did not flush")
	}
	if err := c.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestHTTPTransmissionEndToEnd(t *testing.T) {
	store := tsdb.NewStore()
	srv := httptest.NewServer(tsdb.NewHandler(store))
	defer srv.Close()
	c, err := New(Config{
		Endpoint:      srv.URL,
		Database:      "lms",
		DefaultTags:   map[string]string{"hostname": "h1"},
		FlushInterval: -1,
		Now:           fixedNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.Metric("pressure", 5.9, nil)
	_ = c.Event("run start", nil)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	db := store.DB("lms")
	if db == nil || db.PointCount() != 2 {
		t.Fatalf("db state %v", db)
	}
}

func TestHTTPErrorSurfaced(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.Metric("m", 1, nil)
	if err := c.Flush(); err == nil {
		t.Fatal("expected flush error")
	}
}

func TestConcurrentMetrics(t *testing.T) {
	sink := &collectSink{}
	c := newClient(t, sink, func(cfg *Config) { cfg.MaxBatch = 1 << 30 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = c.Metric("m", float64(i), nil)
			}
		}(g)
	}
	wg.Wait()
	_ = c.Flush()
	if got := len(sink.points(t)); got != 800 {
		t.Fatalf("points %d", got)
	}
}

// fieldOf returns p's value of the field key, the zero Value when it has none.
func fieldOf(p lineproto.Point, key string) lineproto.Value {
	for _, f := range p.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return lineproto.Value{}
}
