// Package stream implements online stream analysis on the router's
// publisher feed.
//
// The paper (Sect. III-B) attaches "other tools like aggregators and
// stream analyzers" to the router via ZeroMQ: they receive every metric
// and all meta information without touching the ingest path, and the
// analysis "can be performed online to detect badly behaving jobs directly
// for instant user feedback". This package provides that consumer: an
// Analyzer subscribes to the pub/sub fabric, decodes the line-protocol
// payloads, maintains running aggregates per (measurement, field, host)
// and feeds the streaming threshold detectors, raising alarms the moment a
// rule's sustained window crosses its timeout.
package stream

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/lineproto"
	"repro/internal/pubsub"
)

// Alarm is one online rule violation, attributed to a host and (when the
// router tagged the data) a job.
type Alarm struct {
	Host      string
	JobID     string
	Violation analysis.Violation
}

// Aggregate is a running per-series summary (Welford's online algorithm
// for the variance).
type Aggregate struct {
	Count    int64
	Min, Max float64
	Mean     float64
	m2       float64
	Last     float64
}

func (a *Aggregate) observe(v float64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	}
	if v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
	a.Count++
	delta := v - a.Mean
	a.Mean += delta / float64(a.Count)
	a.m2 += delta * (v - a.Mean)
	a.Last = v
}

// seriesKey identifies one tracked series.
type seriesKey struct {
	measurement, field, host string
}

// clone copies the key's strings out of whatever larger string they view.
func (k seriesKey) clone() seriesKey {
	return seriesKey{strings.Clone(k.measurement), strings.Clone(k.field), strings.Clone(k.host)}
}

// JobEvent is a decoded meta message (job start/end). Start is derived
// from the topic, not the payload (the payload's "start" key is the
// timestamp).
type JobEvent struct {
	Start bool     `json:"-"`
	JobID string   `json:"jobid"`
	User  string   `json:"username"`
	Nodes []string `json:"nodes"`
}

// Analyzer consumes a publisher feed. Zero value is not usable; construct
// with New.
type Analyzer struct {
	// Rules are evaluated online per host (default analysis.DefaultRules).
	rules []analysis.Rule
	// OnAlarm fires once per violation onset (not for every extension).
	onAlarm func(Alarm)
	// OnJob observes job start/end meta messages. Optional.
	onJob func(JobEvent)

	mu        sync.Mutex
	aggs      map[seriesKey]*Aggregate
	detectors map[seriesKey]*detector // keyed by (rule, field, host)
	processed int64
	malformed int64

	sub  *pubsub.Subscriber
	done chan struct{}
}

// detector is one rule's streaming detector on one host, for the job the
// host's latest point was tagged with. A point tagged with another job
// restarts it, so a run never spans a job boundary and the next job's
// alarm is its own, whether or not a meta/jobend arrived in between.
type detector struct {
	job     string
	stream  analysis.DetectStreaming
	alarmed bool // the current run has raised its alarm
}

// Config for New.
type Config struct {
	Rules   []analysis.Rule
	OnAlarm func(Alarm)
	OnJob   func(JobEvent)
}

// New builds an analyzer.
func New(cfg Config) *Analyzer {
	rules := cfg.Rules
	if rules == nil {
		rules = analysis.DefaultRules()
	}
	return &Analyzer{
		rules:     rules,
		onAlarm:   cfg.OnAlarm,
		onJob:     cfg.OnJob,
		aggs:      make(map[seriesKey]*Aggregate),
		detectors: make(map[seriesKey]*detector),
	}
}

// Attach connects to a publisher and consumes messages until Close (or the
// publisher disconnects). Subscribes to all metrics and all meta topics.
func (a *Analyzer) Attach(addr string) error {
	sub, err := pubsub.Dial(addr)
	if err != nil {
		return err
	}
	// meta/ first: subscription commands are processed in order, so once a
	// metrics/ message is observed, the meta/ subscription is active too
	// (callers probe readiness with a metric).
	if err := sub.Subscribe("meta/"); err != nil {
		_ = sub.Close()
		return err
	}
	if err := sub.Subscribe("metrics/"); err != nil {
		_ = sub.Close()
		return err
	}
	a.mu.Lock()
	a.sub = sub
	a.done = make(chan struct{})
	a.mu.Unlock()
	go func() {
		defer close(a.done)
		for msg := range sub.Messages() {
			a.Handle(msg.Topic, msg.Payload)
		}
	}()
	return nil
}

// Close detaches from the publisher.
func (a *Analyzer) Close() error {
	a.mu.Lock()
	sub, done := a.sub, a.done
	a.sub = nil
	a.mu.Unlock()
	if sub == nil {
		return nil
	}
	err := sub.Close()
	<-done
	return err
}

// Handle processes one published message; exported so tests and embedded
// deployments can bypass the network.
func (a *Analyzer) Handle(topic string, payload []byte) {
	switch {
	case strings.HasPrefix(topic, "metrics/"):
		pts, err := lineproto.Parse(payload)
		if err != nil {
			a.mu.Lock()
			a.malformed++
			a.mu.Unlock()
			return
		}
		for _, p := range pts {
			a.observePoint(p)
		}
	case topic == "meta/jobstart" || topic == "meta/jobend":
		var ev JobEvent
		if err := json.Unmarshal(payload, &ev); err != nil || ev.JobID == "" {
			a.mu.Lock()
			a.malformed++
			a.mu.Unlock()
			return
		}
		ev.Start = topic == "meta/jobstart"
		if a.onJob != nil {
			a.onJob(ev)
		}
	}
}

func (a *Analyzer) observePoint(p lineproto.Point) {
	host := p.Tag("hostname")
	jobID := p.Tag("jobid")
	a.mu.Lock()
	defer a.mu.Unlock()
	a.processed++
	for _, f := range p.Fields {
		field, val := f.Key, f.Value
		if val.Kind() == lineproto.KindString {
			continue
		}
		v := val.FloatVal()
		key := seriesKey{p.Measurement, field, host}
		agg, ok := a.aggs[key]
		if !ok {
			// A parsed point's strings view its whole payload; a key
			// kept for the analyzer's life must not keep that too.
			agg = &Aggregate{}
			a.aggs[key.clone()] = agg
		}
		agg.observe(v)

		for _, rule := range a.rules {
			if rule.Measurement != p.Measurement || rule.Field != field {
				continue
			}
			dkey := seriesKey{rule.Name, field, host}
			det := a.detectors[dkey]
			if det == nil || det.job != jobID {
				det = &detector{job: strings.Clone(jobID), stream: analysis.DetectStreaming{Rule: rule}}
				a.detectors[dkey.clone()] = det
			}
			violation, fired := det.stream.Feed(analysis.TimedValue{T: p.Time, V: v})
			if fired {
				if !det.alarmed {
					det.alarmed = true
					if a.onAlarm != nil {
						// Release the lock around the callback to allow
						// re-entrant Snapshot calls.
						alarm := Alarm{Host: host, JobID: jobID, Violation: violation}
						a.mu.Unlock()
						a.onAlarm(alarm)
						a.mu.Lock()
					}
				}
			} else if !det.stream.InRun() {
				det.alarmed = false
			}
		}
	}
}

// SeriesStats is one entry of the snapshot.
type SeriesStats struct {
	Measurement, Field, Host string
	Aggregate
}

// Snapshot returns the running aggregates sorted by series identity, plus
// processed/malformed message counts.
func (a *Analyzer) Snapshot() ([]SeriesStats, int64, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SeriesStats, 0, len(a.aggs))
	for k, agg := range a.aggs {
		out = append(out, SeriesStats{
			Measurement: k.measurement, Field: k.field, Host: k.host,
			Aggregate: *agg,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Measurement != b.Measurement {
			return a.Measurement < b.Measurement
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return a.Host < b.Host
	})
	return out, a.processed, a.malformed
}

// FormatSnapshot renders the aggregates as a table for operator consoles.
func (a *Analyzer) FormatSnapshot() string {
	stats, processed, malformed := a.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "stream analyzer: %d points processed, %d malformed messages\n", processed, malformed)
	for _, s := range stats {
		fmt.Fprintf(&b, "%-24s %-28s %-10s n=%-6d mean=%-12.4g min=%-12.4g max=%-12.4g last=%.4g\n",
			s.Measurement, s.Field, s.Host, s.Count, s.Mean, s.Min, s.Max, s.Last)
	}
	return b.String()
}
