package main

// `bench compare A.json B.json`: for every workload and end-to-end
// metric the two files share, the median and quartiles of each side and
// a verdict against the metric's bound in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// runSet is a baseline file: where it was taken, and its runs.
type runSet struct {
	Machine string   `json:"machine"`
	NProc   int      `json:"nproc"`
	Go      string   `json:"go"`
	Fsync   string   `json:"fsync"`
	Runs    []record `json:"runs"`
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func machineLine() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s (%s)", model, host)
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (the one Python's statistics.quantiles defaults to),
// so the spread printed here is the spread the driver computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position of the cut
		j := min(max(int(pos), 1), n-1)      // interpolate between s[j-1] and s[j]
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// Verdicts of one workload x metric comparison.
const (
	better      = "better"
	worse       = "worse"
	withinBound = "within-bound"
	unresolved  = "unresolved"
)

// judge compares B against A for one metric. A move past the bound in
// the bad direction is worse, past it in the good direction better. A
// smaller move is within-bound — unless either side's own spread is
// wider than the bound, when a move that small cannot be told from
// noise: unresolved, except where every run of one side beats every run
// of the other.
func judge(a, b []float64, d metricDef) (string, float64) {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma // > 0: B reads higher
	if d.Better == "higher" {
		change = -change
	} // now > 0 means B is worse
	switch {
	case change > d.Bound:
		return worse, change
	case change < -d.Bound:
		return better, change
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		bBeatsA := (d.Better == "lower" && slices.Max(b) < slices.Min(a)) || (d.Better == "higher" && slices.Min(b) > slices.Max(a))
		if !bBeatsA {
			return unresolved, change
		}
	}
	return withinBound, change
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	e, err := findEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bf, err := loadBenchFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return compareSets(os.Stdout, bf, a, b)
}

// collect gathers, per workload, the values of one metric and the failed
// shares over the untraced runs of a set.
func (s *runSet) collect(workload, metric string) (vals, failedShare []float64) {
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
		failedShare = append(failedShare, float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	return vals, failedShare
}

func compareSets(w io.Writer, bf *benchFile, a, b *runSet) int {
	fmt.Fprintf(w, "A: %s, nproc %d, %s, fsync=%s, %d runs\n", a.Machine, a.NProc, a.Go, a.Fsync, len(a.Runs))
	fmt.Fprintf(w, "B: %s, nproc %d, %s, fsync=%s, %d runs\n", b.Machine, b.NProc, b.Go, b.Fsync, len(b.Runs))
	bad := false
	for _, wl := range bf.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, d := range bf.EndToEnd {
			va, fa := a.collect(wl.Name, d.Name)
			vb, _ := b.collect(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				if len(fa) > 0 {
					fmt.Fprintf(w, "  %-26s missing on one side\n", d.Name)
				}
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict, change := judge(va, vb, d)
			if verdict == worse {
				bad = true
			}
			fmt.Fprintf(w, "  %-26s A %.4g [%.4g, %.4g] n=%d   B %.4g [%.4g, %.4g] n=%d %s   B/A %.3f of %.4g, %+.1f%% toward worse, bound %.0f%%: %s\n",
				d.Name, a2, a1, a3, len(va), b2, b1, b3, len(vb), d.Unit, b2/a2, a2, change*100, d.Bound*100, verdict)
		}
		_, fa := a.collect(wl.Name, "")
		_, fb := b.collect(wl.Name, "")
		if len(fa) > 0 && len(fb) > 0 {
			ma, mb := median(fa), median(fb)
			note := "ok"
			if mb > ma {
				note, bad = "worse", true
			}
			fmt.Fprintf(w, "  %-26s A %.6f   B %.6f: %s\n", "failed_share", ma, mb, note)
		}
	}
	if bad {
		return 1
	}
	return 0
}
