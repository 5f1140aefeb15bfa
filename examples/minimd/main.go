// Application-level monitoring of Mantevo's miniMD proxy app, reproducing
// paper Fig. 3: the instrumented application emits runtime per 100
// iterations, pressure, temperature and energy through libusermetric, the
// start/end events come from the command-line tool, and the dashboard
// renders the four series against the runtime with the events as
// annotations.
//
//	go run ./examples/minimd
package main

import (
	"context"
	"fmt"
	"log"

	lms "repro"
	"repro/internal/dashboard"
	"repro/internal/tsdb"
)

func main() {
	stack, sim, err := lms.NewSimulatedStack(
		lms.StackConfig{PerUserDBs: true},
		lms.SimConfig{Nodes: 1, CollectInterval: 60},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	// One miniMD run: 2M atoms, 20000 iterations on 20 cores (~26 simulated
	// minutes). The simulation wires the model's per-100-iteration samples
	// through a libusermetric client into the router.
	mm := lms.NewMiniMD(20, 2097152, 20000)
	if err := sim.SubmitJob(lms.JobRequest{ID: "1234.master", User: "alice", Nodes: 1}, mm); err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(mm.Duration() + 180); err != nil {
		log.Fatal(err)
	}

	// Fig. 3 (left): runtime of 100 iterations and pressure; (right):
	// energy and temperature — all four as sparkline timelines, plus the
	// start/end events as dashed annotation markers in the original.
	job := sim.Sched.Finished()[0]
	meta := sim.JobMeta(job)
	d, err := stack.Agent.GenerateJobDashboard(meta)
	if err != nil {
		log.Fatal(err)
	}
	text, err := dashboard.RenderDashboard(context.Background(), stack.Querier, stack.DBName(), d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(text)

	// The same data, queried the way a Grafana panel would.
	res, err := stack.DB.SelectContext(context.Background(), tsdb.Query{
		Measurement: "minimd",
		Cols:        []tsdb.AggCol{{Field: "pressure", Agg: tsdb.AggMean}},
		Filter:      tsdb.TagFilter{"jobid": "1234.master"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmean pressure over the run: %.3f (LJ reduced units)\n",
		res[0].Rows[0].Values[0].FloatVal())
}
