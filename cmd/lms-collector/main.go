// Command lms-collector runs the LMS host agent (the Diamond role of the
// paper's test setup): it samples system metrics and pushes them to the
// router in the InfluxDB line protocol.
//
// On Linux the system plugins read the real /proc filesystem. Hardware
// performance metrics come from the simulated LIKWID substrate: with
// -simulate a synthetic workload drives the HPM counters so that the full
// metric path can be demonstrated on any machine (see DESIGN.md for the
// substitution rationale).
//
// Usage:
//
//	lms-collector -hostname $(hostname) -endpoint http://router:8090 \
//	              -interval 10s -simulate triad -groups MEM_DP,CLOCK
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/collector"
	"repro/internal/hpm"
	"repro/internal/workload"
)

// realProcFS reads the live /proc filesystem of the host.
type realProcFS struct{}

func read(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func (realProcFS) LoadAvg() string   { return read("/proc/loadavg") }
func (realProcFS) Stat() string      { return read("/proc/stat") }
func (realProcFS) Meminfo() string   { return read("/proc/meminfo") }
func (realProcFS) NetDev() string    { return read("/proc/net/dev") }
func (realProcFS) Diskstats() string { return read("/proc/diskstats") }

func pickWorkload(name string, cores int) (workload.Model, error) {
	switch name {
	case "triad":
		return workload.NewTriad(cores, 1e12), nil
	case "dgemm":
		return workload.NewDGEMM(cores, 1e12), nil
	case "minimd":
		return workload.NewMiniMD(cores, 131072, 1<<40), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want triad, dgemm or minimd)", name)
	}
}

func main() { cli.Main("lms-collector", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lms-collector", flag.ContinueOnError)
	hostname := fs.String("hostname", "", "hostname tag (default: os.Hostname)")
	endpoint := fs.String("endpoint", "http://127.0.0.1:8090", "router or database base URL")
	dbName := fs.String("db", "lms", "database name")
	interval := fs.Duration("interval", 10*time.Second, "collection interval")
	perCore := fs.Bool("per-core", false, "emit per-core CPU utilization")
	simulate := fs.String("simulate", "", "drive simulated HPM counters with a workload (triad, dgemm, minimd)")
	groups := fs.String("groups", "MEM_DP", "comma-separated LIKWID performance groups")
	groupDir := fs.String("group-dir", "", "directory with site-local performance group files (*.txt)")
	cluster := fs.String("cluster", "", "optional cluster tag")
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}

	host := *hostname
	if host == "" {
		h, err := os.Hostname()
		if err != nil {
			return err
		}
		host = h
	}
	extra := map[string]string{}
	if *cluster != "" {
		extra["cluster"] = *cluster
	}
	agent, err := collector.New(collector.Config{
		Hostname:  host,
		Endpoint:  *endpoint,
		Database:  *dbName,
		Interval:  *interval,
		ExtraTags: extra,
		OnError: func(plugin string, err error) {
			log.Printf("lms-collector: %s: %v", plugin, err)
		},
	})
	if err != nil {
		return err
	}

	procFS := realProcFS{}
	for _, p := range []collector.Plugin{
		&collector.LoadPlugin{FS: procFS},
		&collector.CPUPlugin{FS: procFS, PerCore: *perCore},
		&collector.MemoryPlugin{FS: procFS},
		&collector.NetworkPlugin{FS: procFS},
		&collector.DiskPlugin{FS: procFS},
	} {
		if err := agent.Register(p); err != nil {
			return err
		}
	}

	if *simulate != "" {
		topo := hpm.DefaultTopology()
		machine, err := hpm.NewMachine(topo)
		if err != nil {
			return err
		}
		model, err := pickWorkload(*simulate, topo.NumHWThreads())
		if err != nil {
			return err
		}
		groupSet := hpm.Builtin()
		if *groupDir != "" {
			loaded, err := groupSet.LoadDir(*groupDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "lms-collector: loaded custom groups %v from %s\n", loaded, *groupDir)
		}
		for core := 0; core < topo.NumHWThreads(); core++ {
			if err := machine.SetRates(core, model.ProfileAt(1, core).Rates(topo.BaseClockMHz)); err != nil {
				return err
			}
		}
		for _, g := range strings.Split(*groups, ",") {
			g = strings.TrimSpace(g)
			if g == "" {
				continue
			}
			group, err := groupSet.Lookup(g)
			if err != nil {
				return err
			}
			if err := agent.Register(&collector.HPMPlugin{Machine: machine, Group: group}); err != nil {
				return err
			}
		}
		// Advance the simulated counters in real time.
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for range tick.C {
				_ = machine.Advance(1)
			}
		}()
	}

	fmt.Fprintf(stdout, "lms-collector: host %s -> %s every %v (plugins: %s)\n",
		host, *endpoint, *interval, strings.Join(agent.Plugins(), ", "))
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { <-sig; close(stop) }()
	agent.Run(stop)
	return nil
}
