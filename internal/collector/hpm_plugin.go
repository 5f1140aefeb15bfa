package collector

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hpm"
	"repro/internal/lineproto"
)

// HPMPlugin measures a LIKWID performance group continuously between
// collection cycles (the timeline mode of likwid-perfctr) and emits the
// derived metrics.
//
// Each Collect call stops the running measurement interval, evaluates it,
// and immediately starts the next one, so consecutive points cover
// contiguous windows. Metrics are emitted as one point per node
// (measurement "likwid_<group>", fields = sanitized metric names) and
// optionally one point per hardware thread (measurement
// "likwid_<group>_thread", tag "thread").
//
// Node aggregation follows metric semantics: rate- and volume-like metrics
// (".../s]", "volume", "Energy", "MUOPS", "MFLOP", "MIPS", "misses") are
// summed over threads, intensive metrics (CPI, Clock, ratios) are averaged.
type HPMPlugin struct {
	Machine *hpm.Machine
	// Group is the measured group, resolved by the caller through a
	// GroupSet (built-in plus site-local group files).
	Group     *hpm.Group
	Threads   []int // nil = all
	PerThread bool

	sess    *hpm.Session
	started bool
}

// Name implements Plugin.
func (p *HPMPlugin) Name() string { return "likwid_" + strings.ToLower(p.Group.Name) }

// Collect implements Plugin.
func (p *HPMPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	if p.sess == nil {
		sess, err := hpm.NewSession(p.Machine, p.Group, p.Threads)
		if err != nil {
			return nil, err
		}
		p.sess = sess
	}
	if !p.started {
		// First cycle arms the counters; data arrives from the second on.
		if err := p.sess.Start(); err != nil {
			return nil, err
		}
		p.started = true
		return nil, nil
	}
	if err := p.sess.Stop(); err != nil {
		return nil, err
	}
	res, err := p.sess.Result()
	if err != nil {
		return nil, err
	}
	if err := p.sess.Start(); err != nil {
		return nil, err
	}
	if res.Duration <= 0 {
		return nil, nil
	}

	meas := p.Name()
	fields := map[string]lineproto.Value{}
	for _, metric := range res.MetricNames() {
		key := SanitizeFieldKey(metric)
		if key == "" {
			continue
		}
		var v float64
		if SumMetric(metric) {
			v = res.Sum(metric)
		} else {
			v = res.Mean(metric)
		}
		fields[key] = lineproto.Float(v)
	}
	out := []lineproto.Point{lineproto.NewPoint(meas, nil, fields, now)}
	if p.PerThread {
		for _, tid := range res.Threads {
			tf := map[string]lineproto.Value{}
			for _, metric := range res.MetricNames() {
				key := SanitizeFieldKey(metric)
				if key == "" {
					continue
				}
				tf[key] = lineproto.Float(res.Metrics[tid][metric])
			}
			out = append(out, lineproto.NewPoint(
				meas+"_thread",
				map[string]string{"thread": fmt.Sprint(tid)},
				tf,
				now,
			))
		}
	}
	return out, nil
}

// SumMetric decides whether a LIKWID metric is extensive (summed over
// threads for the node value) or intensive (averaged).
func SumMetric(name string) bool {
	lower := strings.ToLower(name)
	for _, marker := range []string{"/s]", "flop/s", "muops", "mips", "volume", "energy", "misses"} {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
}
