// Package analysis implements the data analysis methodology of the LMS
// paper (Sect. V): elementary resource-utilization metrics drawn from
// system-level, application-level and hardware-performance-counter sources,
// pathological-job detection with threshold + timeout rules (Fig. 4), a
// performance-pattern decision tree for spotting optimization potential
// (refs [17] and the FEPA project [8]), and the online job evaluation table
// shown as the dashboard header (Fig. 2).
package analysis

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Condition says on which side of the threshold a sample is pathological.
type Condition int

// Threshold conditions.
const (
	Below Condition = iota
	Above
)

// String names the condition.
func (c Condition) String() string {
	if c == Above {
		return "above"
	}
	return "below"
}

// Rule is one pathological-job detection rule: a metric staying below/above
// a threshold for at least Timeout (paper: "detection of pathological jobs
// is based on simple rules for the resource utilization metrics using
// thresholds and timeouts").
type Rule struct {
	Name        string
	Measurement string
	Field       string
	Cond        Condition
	Threshold   float64
	Timeout     time.Duration
	Description string
}

// DefaultRules is the rule set for the Sect. I pathologies, with the Fig. 4
// 10-minute timeout on the HPM rules.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:        "low_flops",
			Measurement: "likwid_mem_dp", Field: "dp_mflop_s",
			Cond: Below, Threshold: 100, Timeout: 10 * time.Minute,
			Description: "DP FP rate below 100 MFLOP/s",
		},
		{
			Name:        "low_membw",
			Measurement: "likwid_mem_dp", Field: "memory_bandwidth_mbytes_s",
			Cond: Below, Threshold: 500, Timeout: 10 * time.Minute,
			Description: "memory bandwidth below 500 MB/s",
		},
		{
			Name:        "idle_cpu",
			Measurement: "cpu", Field: "percent",
			Cond: Below, Threshold: 5, Timeout: 10 * time.Minute,
			Description: "CPU utilization below 5%",
		},
		{
			Name:        "memory_exceeded",
			Measurement: "memory", Field: "used_percent",
			Cond: Above, Threshold: 95, Timeout: time.Minute,
			Description: "allocated memory above 95% of capacity",
		},
	}
}

// TimedValue is one sample of a metric timeline.
type TimedValue struct {
	T time.Time
	V float64
}

// Violation is one detected pathological interval.
type Violation struct {
	Rule     Rule
	Start    time.Time
	End      time.Time
	Extremum float64 // the worst value inside the interval
	Samples  int
}

// Duration of the violation.
func (v Violation) Duration() time.Duration { return v.End.Sub(v.Start) }

// String renders a human-readable description, the text shown in the job
// evaluation header.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s for %s (from %s to %s, worst %.4g)",
		v.Rule.Name, v.Rule.Description, v.Duration().Round(time.Second),
		v.Start.Format("15:04:05"), v.End.Format("15:04:05"), v.Extremum)
}

// Detect finds all maximal runs of consecutive samples satisfying the rule
// condition whose span is at least the rule timeout. Samples must be in
// chronological order (the tsdb returns them sorted). It is the streaming
// detector folded over the series: each run keeps its last, widest
// violation.
func Detect(rule Rule, series []TimedValue) []Violation {
	var out []Violation
	d := DetectStreaming{Rule: rule}
	open := false // out's last violation belongs to the current run
	for _, s := range series {
		v, ok := d.Feed(s)
		switch {
		case !ok:
			open = false
		case open:
			out[len(out)-1] = v
		default:
			out = append(out, v)
			open = true
		}
	}
	return out
}

// DetectStreaming is the online variant: feed samples one at a time and
// receive a violation as soon as the sustained window crosses the timeout
// (instant user feedback, Sect. I). Ongoing violations extend the returned
// interval on subsequent samples.
type DetectStreaming struct {
	Rule Rule

	runStart time.Time
	extremum float64
	samples  int
	inRun    bool
}

// InRun reports whether the detector is currently inside a run of
// condition-matching samples (not necessarily past the timeout yet).
func (d *DetectStreaming) InRun() bool { return d.inRun }

// Feed consumes one sample. The returned violation (if any) covers the run
// up to this sample; it is emitted on every sample once the timeout is
// crossed, so callers see the interval grow live.
func (d *DetectStreaming) Feed(s TimedValue) (Violation, bool) {
	matches := s.V < d.Rule.Threshold
	if d.Rule.Cond == Above {
		matches = s.V > d.Rule.Threshold
	}
	if !matches {
		d.inRun = false
		return Violation{}, false
	}
	if !d.inRun {
		d.inRun = true
		d.runStart = s.T
		d.extremum = s.V
		d.samples = 1
	} else {
		d.samples++
		if d.Rule.Cond == Below && s.V < d.extremum {
			d.extremum = s.V
		}
		if d.Rule.Cond == Above && s.V > d.extremum {
			d.extremum = s.V
		}
	}
	if s.T.Sub(d.runStart) >= d.Rule.Timeout {
		return Violation{
			Rule:     d.Rule,
			Start:    d.runStart,
			End:      s.T,
			Extremum: d.extremum,
			Samples:  d.samples,
		}, true
	}
	return Violation{}, false
}

// Stats summarizes a sample set: the five numbers the evaluation table
// shows per metric.
type Stats struct {
	Min, Median, Max, Mean, Stddev float64
	N                              int
}

// ComputeStats reduces values to Stats. Empty input yields zero Stats.
func ComputeStats(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	stddev := 0.0
	if len(s) > 1 {
		stddev = math.Sqrt(ss / float64(len(s)-1))
	}
	var median float64
	if len(s)%2 == 1 {
		median = s[len(s)/2]
	} else {
		median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Stats{Min: s[0], Median: median, Max: s[len(s)-1], Mean: mean, Stddev: stddev, N: len(s)}
}

// ImbalanceFrac quantifies load imbalance as (max-min)/max over per-node or
// per-core values; 0 = perfectly balanced, 1 = at least one unit fully idle
// while another works.
func ImbalanceFrac(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	st := ComputeStats(values)
	if st.Max <= 0 {
		return 0
	}
	return (st.Max - st.Min) / st.Max
}
