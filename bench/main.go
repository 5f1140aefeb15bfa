// Command bench is the repo's benchmark: it builds lms-db and lms-router
// from the checkout, runs them as child processes in the paper's
// topology (agent -> router -> cluster -> durable lms-db -> dashboard),
// drives a seeded workload through them, checks every answer and prints
// every metric by name. bench/README.md defines the workloads, the
// metrics and how they interact; BENCHMARK.json at the root lists the
// metric names, units and regression bounds.
//
// Usage:
//
//	go run -C bench . [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-record file]
//	go run -C bench . compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// benchFile is BENCHMARK.json.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(root string) (*benchFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// value is one reported metric. n is the sample count behind it (0 for
// a ratio of totals); it is printed, not part of the result line.
type value struct {
	v float64
	n int
}

// result is the last line of a run: the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as bench/baseline keeps it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	result
	// Other holds what the run measured beyond its mode's list in
	// BENCHMARK.json: the generator's own figures of an end-to-end run.
	Other map[string]float64 `json:"other,omitempty"`
}

func main() {
	// The box has two vCPUs and the servers need them; the generator
	// declares the share it may take.
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: each in turn)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	recordTo := fs.String("record", "", "append each run to this JSON file (bench/baseline format)")
	if err := fs.Parse(args); err != nil {
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
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	specs := workloads
	if *workload != "" {
		s, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []spec{s}
	}

	// Children and data directories go away on SIGINT/SIGTERM as on any
	// failure.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAllStacks()
		os.Exit(130)
	}()

	if err := e.build(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, s := range specs {
		res, other, err := runOne(e, bf, s, *seed, *seconds, *trace == 1)
		if err != nil {
			killAllStacks()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		if *recordTo != "" {
			if err := appendRecord(*recordTo, record{s.name, *seed, *seconds, *trace == 1, *res, other}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

// runOne performs one run and prints its table; the caller prints the
// result line. other is what was measured without being on the mode's
// list in BENCHMARK.json.
func runOne(e *env, bf *benchFile, s spec, seed int64, seconds int, traced bool) (res *result, other map[string]float64, err error) {
	fmt.Printf("# %s seed=%d seconds=%d trace=%v — %s\n", s.name, seed, seconds, traced, s.why)
	var vals map[string]value
	var m *measurements
	var defs []metricDef
	in, err := newInputs(s, seed)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		defs = bf.PerLayer
		m, vals, err = runTraced(e, in, float64(seconds))
	} else {
		defs = bf.EndToEnd
		m, err = runEndToEnd(e, in, float64(seconds), setupRepeats, 1)
		if err == nil {
			vals = endToEnd(m)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	res = &result{Correct: m.verdict.failed == 0, Attempted: max(m.checks, 1), Failed: m.verdict.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, nil, fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v.v, d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%% (%s is better)", d.Bound*100, d.Better)
		}
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("  n=%d", v.n)
		}
		fmt.Printf("%-36s %14.4f %-9s%s%s\n", d.Name, v.v, d.Unit, n, bound)
	}
	other = map[string]float64{}
	var names []string
	for name, v := range vals {
		if _, listed := res.Metrics[name]; !listed {
			other[name] = v.v
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %14.4f\n", name, other[name])
	}
	fmt.Printf("%-36s %14d of %d\n", "failed", res.Failed, res.Attempted)
	for _, note := range m.notes {
		fmt.Println("  !", note)
	}
	return res, other, nil
}

// endToEnd names what a run measured.
func endToEnd(m *measurements) map[string]value {
	out := map[string]value{
		"setup_s":                  {median(m.setupS), len(m.setupS)},
		"write_points_per_s":       {m.wClosed.ratePerS() * float64(m.pointsPerWrite), m.wClosed.n},
		"write_p50_ms":             {percentile(m.wOpen.latMS, 50), m.wOpen.n},
		"query_p50_ms":             {percentile(m.qOpen.latMS, 50), m.qOpen.n},
		"server_cpu_us_per_point":  {midmean(m.cpuW) * 1e6 / float64(m.pointsPerWrite), m.wClosed.n},
		"disk_bytes_per_point":     {float64(m.diskBytes) / float64(m.ackedPoints), 0},
		"resident_bytes_per_point": {m.residentBytes / float64(m.ackedPoints), 0},
	}
	for name, v := range loadgenMetrics(m) {
		out[name] = v
	}
	return out
}

// loadgenMetrics are the generator's own figures — schedule lateness,
// its CPU share, failures as a share — and the measurements that would
// not settle within a bound from run to run (bench/README.md, "Bounds
// and demotions"): tails, read capacity, recovery time.
func loadgenMetrics(m *measurements) map[string]value {
	late := append(append([]float64(nil), m.wOpen.lateMS...), m.qOpen.lateMS...)
	out := map[string]value{
		"loadgen.write_p99_ms":            {tail(m.wOpen.latMS), m.wOpen.n},
		"loadgen.query_p99_ms":            {tail(m.qOpen.latMS), m.qOpen.n},
		"loadgen.late_p50_ms":             {percentile(late, 50), len(late)},
		"loadgen.late_p99_ms":             {percentile(late, 99), len(late)},
		"loadgen.cpu_share":               {m.ownCPU / (m.wallS * float64(runtime.NumCPU())), 0},
		"loadgen.server_rss_mb":           {m.rssMB, 0},
		"loadgen.recovery_s":              {m.recoveryS, m.crashes},
		"loadgen.query_per_s":             {m.qClosed.ratePerS(), m.qClosed.n},
		"loadgen.server_cpu_us_per_query": {midmean(m.cpuQ) * 1e6, m.qClosed.n},
		"loadgen.failed_share":            {float64(m.verdict.failed) / float64(max(m.checks, 1)), m.checks},
	}
	for k, name := range kindNames {
		v := 0.0
		if len(m.kindMS[k]) > 0 {
			v = percentile(m.kindMS[k], 50)
		}
		out["loadgen."+name+"_p50_ms"] = value{v, len(m.kindMS[k])}
	}
	return out
}

// tail is the p99 of an open phase, or, where the phase has too few
// requests to leave ten samples beyond the p99, the highest percentile
// that does.
func tail(latMS []float64) float64 {
	return percentile(latMS, min(99, tailPercentile(len(latMS))))
}

// appendRecord adds one run to a baseline file, creating it with the
// machine description on first use.
func appendRecord(path string, r record) error {
	set, err := readSet(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if set == nil {
		set = &runSet{Machine: machineLine(), NProc: runtime.NumCPU(), Go: runtime.Version(), Fsync: "batch"}
	}
	set.Runs = append(set.Runs, r)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
