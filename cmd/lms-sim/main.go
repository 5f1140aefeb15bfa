// Command lms-sim runs the complete LIKWID Monitoring Stack against a
// simulated cluster and reproduces the paper's figures (see EXPERIMENTS.md
// for the mapping):
//
//	-scenario minimd        application-level monitoring of miniMD (Fig. 3)
//	-scenario pathological  four-node job with a >10 min compute break (Fig. 4)
//	-scenario mixed         a small production mix for the admin view (Fig. 2)
//
// While the simulation runs, the web viewer is served on -http (default
// :8080): "/" is the administrator view with all running jobs, "/job/<id>"
// the per-job user view, "/api/dashboard/<id>" the generated Grafana JSON.
// After the run the per-job evaluation tables are printed, and -dump writes
// the collected raw data as a line-protocol file for lms-analyze /
// lms-dashboard.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/jobsched"
	"repro/internal/lineproto"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

type scenario struct {
	nodes    int
	duration float64
	submit   func(sim *core.Simulation) error
}

func scenarios() map[string]scenario {
	return map[string]scenario{
		"minimd": {
			nodes:    1,
			duration: 0, // model duration + slack, filled below
			submit: func(sim *core.Simulation) error {
				mm := workload.NewMiniMD(20, 2097152, 40000)
				return sim.SubmitJob(jobsched.JobRequest{
					ID: "1234.master", User: "alice", Nodes: 1,
				}, mm)
			},
		},
		"pathological": {
			nodes:    4,
			duration: 7200,
			submit: func(sim *core.Simulation) error {
				// Fig. 4: computation break from minute 40 to minute 58.
				w := workload.NewIdleBreak(20, 6600, 2400, 3480)
				return sim.SubmitJob(jobsched.JobRequest{
					ID: "4711.master", User: "bob", Nodes: 4,
				}, w)
			},
		},
		"mixed": {
			nodes:    8,
			duration: 5400,
			submit: func(sim *core.Simulation) error {
				jobs := []struct {
					id, user string
					nodes    int
					model    workload.Model
				}{
					{"2001.master", "alice", 2, workload.NewTriad(20, 3600)},
					{"2002.master", "bob", 4, workload.NewDGEMM(20, 2400)},
					{"2003.master", "carol", 1, workload.NewMiniMD(20, 2097152, 30000)},
					{"2004.master", "dave", 2, &workload.LoadImbalance{Cores: 20, RuntimeSecs: 2400}},
				}
				for _, j := range jobs {
					err := sim.SubmitJob(jobsched.JobRequest{
						ID: j.id, User: j.user, Nodes: j.nodes,
					}, j.model)
					if err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
}

func main() { cli.Main("lms-sim", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lms-sim", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "mixed", "minimd, pathological or mixed")
	httpAddr := fs.String("http", ":8080", "web viewer listen address (empty = off)")
	dbAddr := fs.String("db-http", "", "serve the InfluxDB-compatible API here (empty = off)")
	publish := fs.String("publish", "", "ZeroMQ-style publisher address (empty = off)")
	interval := fs.Float64("interval", 60, "collection interval in simulated seconds")
	duration := fs.Float64("duration", 0, "override the scenario's simulated duration in seconds (0 = scenario default)")
	shards := fs.Int("shards", 0, "tsdb lock shards per database (0 = GOMAXPROCS)")
	dump := fs.String("dump", "", "write collected data as line protocol to this file")
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}

	sc, ok := scenarios()[*scenarioName]
	if !ok {
		return cli.Usagef("unknown scenario %q", *scenarioName)
	}
	stack, sim, err := core.NewSimulatedStack(
		core.StackConfig{PerUserDBs: true, PubSubAddr: *publish, TSDBShards: *shards},
		core.SimConfig{Nodes: sc.nodes, CollectInterval: *interval},
	)
	if err != nil {
		return err
	}
	defer stack.Close()

	if *httpAddr != "" {
		go func() {
			fmt.Fprintf(stdout, "lms-sim: web viewer on http://localhost%s/\n", *httpAddr)
			log.Println(http.ListenAndServe(*httpAddr, stack.Viewer))
		}()
	}
	if *dbAddr != "" {
		go func() {
			fmt.Fprintf(stdout, "lms-sim: database API on http://localhost%s/\n", *dbAddr)
			log.Println(http.ListenAndServe(*dbAddr, stack.DBHandler))
		}()
	}

	if err := sc.submit(sim); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	secs := sc.duration
	if *duration > 0 {
		secs = *duration
	}
	if secs == 0 {
		// minimd: model duration plus slack.
		secs = workload.NewMiniMD(20, 2097152, 40000).Duration() + 300
	}
	fmt.Fprintf(stdout, "lms-sim: scenario %q on %d nodes, %.0f simulated seconds, sampling every %.0fs\n",
		*scenarioName, sc.nodes, secs, *interval)
	if err := sim.Run(secs); err != nil {
		return fmt.Errorf("run: %w", err)
	}

	rec, fwd, drop := stack.Router.Stats()
	fmt.Fprintf(stdout, "lms-sim: router received %d, forwarded %d, dropped %d points; db holds %d points\n",
		rec, fwd, drop, stack.DB.PointCount())

	// Per-job evaluation (Fig. 2 header) for every finished job, feeding
	// the cluster usage statistics (Sect. I: statistical foundation for
	// operational settings and procurements).
	var usage analysis.UsageStats
	for _, job := range sim.Sched.Finished() {
		rep, err := stack.Evaluator.Evaluate(sim.JobMeta(job))
		if err != nil {
			return fmt.Errorf("evaluate %s: %w", job.Req.ID, err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rep.FormatTable())
		usage.Add(analysis.RecordFromReport(rep))
	}
	if usage.Len() > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, usage.FormatReport())
	}
	// Rendered user view for the first job (Fig. 3 / Fig. 4 timelines).
	if fin := sim.Sched.Finished(); len(fin) > 0 {
		meta := sim.JobMeta(fin[0])
		d, err := stack.Agent.GenerateJobDashboard(meta)
		if err != nil {
			return fmt.Errorf("dashboard: %w", err)
		}
		text, err := dashboard.RenderDashboard(context.Background(), stack.Querier, stack.DBName(), d)
		if err != nil {
			return fmt.Errorf("render: %w", err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, text)
	}

	if *dump != "" {
		if err := dumpDB(stack.DB, *dump); err != nil {
			return fmt.Errorf("dump: %w", err)
		}
		fmt.Fprintf(stdout, "lms-sim: wrote %s\n", *dump)
	}
	return nil
}

// dumpDB exports every stored point as line protocol.
func dumpDB(db *tsdb.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, meas := range db.Measurements() {
		series, err := db.SelectContext(context.Background(), tsdb.Query{Measurement: meas, GroupByTags: db.TagKeys(meas)})
		if err != nil {
			return err
		}
		for _, s := range series {
			for _, row := range s.Rows {
				p := lineproto.Point{
					Measurement: meas,
					Tags:        map[string]string{},
					Fields:      map[string]lineproto.Value{},
					Time:        row.Time,
				}
				for k, v := range s.Tags {
					if v != "" {
						p.Tags[k] = v
					}
				}
				for i, col := range s.Columns {
					if row.Values[i] != nil {
						p.Fields[col] = *row.Values[i]
					}
				}
				if len(p.Fields) == 0 {
					continue
				}
				enc, err := lineproto.EncodePoint(p)
				if err != nil {
					return err
				}
				if _, err := f.Write(append(enc, '\n')); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
