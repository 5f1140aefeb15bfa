// Package collector implements the LMS host agent: a plugin-based metric
// collection daemon in the role Diamond plays in the paper's test setup
// (Sect. III-A: "For our tests we used the Python-based data collection
// daemon Diamond, cronjobs sending metrics with curl and cronjobs supplying
// the metrics to Ganglia").
//
// The agent owns a set of plugins; each collection cycle produces a batch of
// line-protocol points tagged with the hostname and pushes them over HTTP to
// the router (or any InfluxDB-compatible endpoint). The simulation driver
// can instead call CollectOnce with a simulated timestamp and push the batch
// itself, keeping simulated time decoupled from wall-clock time.
package collector

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// Plugin produces points for one metric family. Collect receives the
// timestamp to stamp points with (simulated or wall-clock).
type Plugin interface {
	Name() string
	Collect(now time.Time) ([]lineproto.Point, error)
}

// Config configures an Agent.
type Config struct {
	// Hostname is the mandatory tag value for all emitted points.
	Hostname string
	// Endpoint is the router/database base URL. Required unless Sink is set.
	Endpoint string
	// Database is the target database (default "lms").
	Database string
	// Sink bypasses HTTP (in-process delivery for simulations/tests).
	Sink func(payload []byte) error
	// Interval is the collection period for the Run loop (default 10s).
	Interval time.Duration
	// ExtraTags are added to every point (e.g. cluster name).
	ExtraTags map[string]string
	// OnError observes per-plugin and transmission errors. Optional.
	OnError func(plugin string, err error)
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

// Agent is the collection daemon.
type Agent struct {
	cfg     Config
	send    func(payload []byte) error
	mu      sync.Mutex
	plugins []Plugin
	// hostTags are hostname and ExtraTags in a point's shape, merged
	// under every point's own tags.
	hostTags []lineproto.Tag

	collected int64
	sendFails int64
}

// New validates the configuration and returns an agent with no plugins.
func New(cfg Config) (*Agent, error) {
	if cfg.Hostname == "" {
		return nil, fmt.Errorf("collector: Hostname required")
	}
	if cfg.Endpoint == "" && cfg.Sink == nil {
		return nil, fmt.Errorf("collector: Endpoint or Sink required")
	}
	if cfg.Database == "" {
		cfg.Database = "lms"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	host := map[string]string{"hostname": cfg.Hostname}
	for k, v := range cfg.ExtraTags {
		if k != "hostname" {
			host[k] = v
		}
	}
	a := &Agent{cfg: cfg, hostTags: lineproto.TagsFrom(host)}
	if cfg.Sink != nil {
		a.send = cfg.Sink
	} else {
		client := &tsdb.Client{BaseURL: strings.TrimRight(cfg.Endpoint, "/"), Database: cfg.Database, HTTPClient: cfg.HTTPClient}
		a.send = client.WriteBody
	}
	return a, nil
}

// Register adds a plugin. Duplicate names are rejected.
func (a *Agent) Register(p Plugin) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, q := range a.plugins {
		if q.Name() == p.Name() {
			return fmt.Errorf("collector: plugin %q already registered", p.Name())
		}
	}
	a.plugins = append(a.plugins, p)
	return nil
}

// Plugins lists registered plugin names.
func (a *Agent) Plugins() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, len(a.plugins))
	for i, p := range a.plugins {
		names[i] = p.Name()
	}
	sort.Strings(names)
	return names
}

// CollectOnce runs every plugin, tags the points and returns the combined
// batch without sending it. Plugin errors are reported via OnError and skip
// only that plugin's points.
func (a *Agent) CollectOnce(now time.Time) []lineproto.Point {
	a.mu.Lock()
	plugins := append([]Plugin(nil), a.plugins...)
	a.mu.Unlock()
	var out []lineproto.Point
	for _, p := range plugins {
		pts, err := p.Collect(now)
		if err != nil {
			if a.cfg.OnError != nil {
				a.cfg.OnError(p.Name(), err)
			}
			continue
		}
		for _, pt := range pts {
			pt.Tags = lineproto.MergeTags(nil, pt.Tags, a.hostTags)
			if pt.Time.IsZero() {
				pt.Time = now
			}
			out = append(out, pt)
		}
	}
	a.mu.Lock()
	a.collected += int64(len(out))
	a.mu.Unlock()
	return out
}

// Push sends a batch produced by CollectOnce.
func (a *Agent) Push(pts []lineproto.Point) error {
	if len(pts) == 0 {
		return nil
	}
	payload, err := lineproto.Encode(pts)
	if err != nil {
		return fmt.Errorf("collector: encode: %w", err)
	}
	if err := a.send(payload); err != nil {
		a.mu.Lock()
		a.sendFails++
		a.mu.Unlock()
		return fmt.Errorf("collector: push: %w", err)
	}
	return nil
}

// CollectAndPush is one full cycle.
func (a *Agent) CollectAndPush(now time.Time) error {
	return a.Push(a.CollectOnce(now))
}

// Run loops CollectAndPush every Interval until stop is closed. Errors are
// reported via OnError and do not stop the loop.
func (a *Agent) Run(stop <-chan struct{}) {
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			if err := a.CollectAndPush(now); err != nil && a.cfg.OnError != nil {
				a.cfg.OnError("push", err)
			}
		case <-stop:
			return
		}
	}
}

// SanitizeFieldKey converts a LIKWID metric name ("DP MFLOP/s",
// "Memory bandwidth [MBytes/s]") into a line-protocol friendly field key
// ("dp_mflop_s", "memory_bandwidth_mbytes_s").
func SanitizeFieldKey(name string) string {
	var b strings.Builder
	lastUnderscore := true // suppress leading underscore
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		case r == '[' || r == ']' || r == '(' || r == ')':
			// brackets vanish entirely
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	return strings.TrimRight(b.String(), "_")
}
