// Package usermetric is the Go port of LMS's libusermetric (paper
// Sect. IV): a lightweight application-level annotation library that
// buffers metrics and events and sends them as batched line-protocol
// messages over HTTP.
//
// Compared to rich annotation systems like Caliper, libusermetric
// deliberately supports only values and events: a metric has a name, a
// value (or several fields), default tags configured once, arbitrary
// per-call tags (such as a thread identifier) and a timestamp. Events are
// string-valued points in the shared "events" measurement, rendered as
// annotations by the dashboards.
package usermetric

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// DefaultFlushInterval is the background flush period when none is
// configured.
const DefaultFlushInterval = time.Second

// DefaultMaxBatch is the point count that triggers an early flush.
const DefaultMaxBatch = 500

// retryLimit bounds both the re-transmissions of a failed payload and the
// failed payloads waiting for the next flush: an outage of the endpoint
// costs the monitored application at most this many payloads of memory.
const retryLimit = 3

// Config configures a Client.
type Config struct {
	// Endpoint is the router or database base URL, e.g.
	// "http://router:8090". Required unless Sink is set.
	Endpoint string
	// Database is the target database name (default "lms").
	Database string
	// Sink overrides HTTP transmission with a direct callback; used by
	// in-process simulations and tests. Receives an encoded line-protocol
	// payload.
	Sink func(payload []byte) error
	// DefaultTags are added to every metric and event. The hostname tag
	// should be present so the router can attach job information.
	DefaultTags map[string]string
	// FlushInterval is the background flush period; 0 selects the default,
	// negative disables background flushing (explicit Flush only).
	FlushInterval time.Duration
	// MaxBatch flushes early when this many points are buffered
	// (default 500).
	MaxBatch int
	// OnError observes transmission errors (payloads are retried on the
	// next flush up to retryLimit times). Optional.
	OnError func(error)
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Client is the libusermetric handle. All methods are safe for concurrent
// use; metric submission never blocks on the network.
type Client struct {
	cfg   Config
	send  func(payload []byte) error
	now   func() time.Time
	batch *lineproto.Batch

	mu      sync.Mutex
	pending [][]byte // failed payloads awaiting retry
	retries int
	closed  bool
	stop    chan struct{}
	done    chan struct{}

	sent    int64
	dropped int64
}

// New validates the configuration and starts the background flusher.
func New(cfg Config) (*Client, error) {
	if cfg.Endpoint == "" && cfg.Sink == nil {
		return nil, fmt.Errorf("usermetric: Endpoint or Sink required")
	}
	if cfg.Database == "" {
		cfg.Database = "lms"
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Client{
		cfg:   cfg,
		now:   cfg.Now,
		batch: lineproto.NewBatch(cfg.DefaultTags),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cfg.Sink != nil {
		c.send = cfg.Sink
	} else {
		client := &tsdb.Client{BaseURL: strings.TrimRight(cfg.Endpoint, "/"), Database: cfg.Database, HTTPClient: cfg.HTTPClient}
		c.send = client.WriteBody
	}
	if cfg.FlushInterval > 0 {
		go c.flushLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

func (c *Client) flushLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := c.Flush(); err != nil && c.cfg.OnError != nil {
				c.cfg.OnError(err)
			}
		case <-c.stop:
			return
		}
	}
}

// Metric buffers a single-value metric. Extra tags override default tags on
// collision.
func (c *Client) Metric(name string, value float64, tags map[string]string) error {
	return c.MetricFields(name, map[string]lineproto.Value{"value": lineproto.Float(value)}, tags)
}

// MetricFields buffers a multi-field metric.
func (c *Client) MetricFields(name string, fields map[string]lineproto.Value, tags map[string]string) error {
	p := lineproto.NewPoint(name, tags, fields, time.Time{})
	if err := c.batch.Add(p, c.now()); err != nil {
		return fmt.Errorf("usermetric: %w", err)
	}
	if c.batch.Len() >= c.cfg.MaxBatch {
		return c.Flush()
	}
	return nil
}

// Event buffers a string event into the "events" measurement. Events mark
// points in time (application start/end, phase changes) and appear as
// dashed annotation lines in the dashboards (paper Fig. 3).
func (c *Client) Event(text string, tags map[string]string) error {
	p := lineproto.NewPoint(
		"events",
		tags,
		map[string]lineproto.Value{"text": lineproto.String(text)},
		time.Time{},
	)
	if err := c.batch.Add(p, c.now()); err != nil {
		return fmt.Errorf("usermetric: %w", err)
	}
	if c.batch.Len() >= c.cfg.MaxBatch {
		return c.Flush()
	}
	return nil
}

// Flush transmits the buffered batch plus any pending retries. Failed
// payloads are kept for the next flush until retryLimit is exceeded, then
// dropped, oldest first, as is the oldest of more than retryLimit waiting
// payloads (monitoring must never stall or grow the application).
func (c *Client) Flush() error {
	payload := c.batch.Flush()
	c.mu.Lock()
	defer c.mu.Unlock()
	if payload != nil {
		c.pending = append(c.pending, payload)
	}
	for len(c.pending) > 0 {
		if err := c.send(c.pending[0]); err != nil {
			c.retries++
			for len(c.pending) > 0 && (c.retries > retryLimit || len(c.pending) > retryLimit) {
				c.dropped += int64(countLines(c.pending[0]))
				c.pending = c.pending[1:]
				c.retries = 0
			}
			return err // try again next flush
		}
		c.sent += int64(countLines(c.pending[0]))
		c.pending = c.pending[1:]
		c.retries = 0
	}
	return nil
}

func countLines(p []byte) int {
	n := 0
	for _, b := range p {
		if b == '\n' {
			n++
		}
	}
	return n
}

// Close flushes remaining data and stops the background flusher. The client
// must not be used afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.cfg.FlushInterval > 0 {
		close(c.stop)
		<-c.done
	}
	return c.Flush()
}
