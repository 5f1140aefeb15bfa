// Pathological-job detection, reproducing paper Fig. 4: a four-node job
// suffers a computation break of more than ten minutes; the DP FP rate and
// memory bandwidth stay below their thresholds longer than the rule
// timeout, so the job is flagged with the exact interval — both offline
// (batch scan) and online (streaming detection firing the moment the
// sustained window crosses the timeout).
//
//	go run ./examples/pathological
package main

import (
	"context"
	"fmt"
	"log"

	lms "repro"
	"repro/internal/analysis"
	"repro/internal/dashboard"
	"repro/internal/tsdb"
)

func main() {
	stack, sim, err := lms.NewSimulatedStack(
		lms.StackConfig{},
		lms.SimConfig{Nodes: 4, CollectInterval: 60},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	// 110-minute job; the break runs from minute 40 to minute 58 (18
	// minutes, comfortably beyond the 10-minute timeout of Fig. 4).
	w := lms.NewIdleBreak(20, 6600, 2400, 3480)
	if err := sim.SubmitJob(lms.JobRequest{ID: "4711.master", User: "bob", Nodes: 4}, w); err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(7200); err != nil {
		log.Fatal(err)
	}

	job := sim.Sched.Finished()[0]
	meta := sim.JobMeta(job)

	// Offline analysis: the evaluation table with the flagged intervals.
	report, err := stack.Evaluator.Evaluate(meta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.FormatTable())

	// The Fig. 4 timeline: per-host DP FP rate and memory bandwidth.
	fmt.Println()
	for _, field := range []string{"dp_mflop_s", "memory_bandwidth_mbytes_s"} {
		res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
			Measurement: "likwid_mem_dp",
			Cols:        []tsdb.AggCol{{Field: field}},
			Filter:      tsdb.TagFilter{"jobid": "4711.master"},
			GroupByTags: []string{"hostname"},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s per host:\n", field)
		for _, s := range res {
			var vals []float64
			for _, r := range s.Rows {
				vals = append(vals, r.Values[0].FloatVal())
			}
			fmt.Printf("  %-8s %s\n", s.Tags["hostname"], dashboard.Sparkline(vals))
		}
	}

	// Online detection: replay node01's FP-rate timeline through the
	// streaming detector and report when the alarm would have fired during
	// the run ("detect badly behaving jobs directly for instant user
	// feedback").
	series := jobSeries(stack, meta, "node01")
	rule := analysis.DefaultRules()[0] // low_flops, 10 min timeout
	det := &analysis.DetectStreaming{Rule: rule}
	for _, s := range series {
		if v, ok := det.Feed(s); ok {
			fmt.Printf("\nonline alarm at %s: %s\n",
				s.T.Format("15:04:05"), v.String())
			break
		}
	}
}

func jobSeries(stack *lms.Stack, meta lms.JobMeta, node string) []analysis.TimedValue {
	res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "likwid_mem_dp",
		Cols:        []tsdb.AggCol{{Field: "dp_mflop_s"}},
		Filter:      tsdb.TagFilter{"hostname": node},
		Start:       meta.Start,
		End:         meta.End,
	})
	if err != nil || len(res) == 0 {
		log.Fatal("no series for ", node, ": ", err)
	}
	var out []analysis.TimedValue
	for _, r := range res[0].Rows {
		out = append(out, analysis.TimedValue{T: r.Time, V: r.Values[0].FloatVal()})
	}
	return out
}
