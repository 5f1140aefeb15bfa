package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/hpm"
	"repro/internal/jobsched"
	"repro/internal/lineproto"
	"repro/internal/proc"
	"repro/internal/router"
	"repro/internal/usermetric"
	"repro/internal/workload"
)

// SimEpoch anchors simulated time: simulated second 0 maps to this wall
// clock instant (the paper's arXiv submission date, for flavor).
var SimEpoch = time.Date(2017, 8, 4, 10, 0, 0, 0, time.UTC)

// SimConfig describes the simulated cluster.
type SimConfig struct {
	// Nodes is the compute node count (named node01..nodeNN).
	Nodes int
	// Topology is the per-node hardware layout.
	Topology hpm.Topology
	// MemKBPerNode is the node memory capacity (default 64 GB).
	MemKBPerNode uint64
	// CollectInterval is the monitoring sampling period in simulated
	// seconds (default 60, typical production monitoring cadence).
	CollectInterval float64
	// HPMGroups are the LIKWID groups collected per node (default MEM_DP).
	HPMGroups []string
}

// SimNode is one simulated compute node with its collection agent.
type SimNode struct {
	Name    string
	Machine *hpm.Machine
	Proc    *proc.State
	Agent   *collector.Agent

	model    workload.Model
	jobStart float64 // simulated start time of the running job
	cores    int
}

// Simulation drives a simulated cluster against a Stack: scheduler events
// become router job signals, workload models drive the per-node hardware
// and OS counters, collection agents sample them, and application-level
// samplers (miniMD) emit through libusermetric — the complete Fig. 1
// data flow without any real hardware.
type Simulation struct {
	Stack *Stack
	Sched *jobsched.Scheduler
	Nodes []*SimNode

	cfg    SimConfig
	now    float64
	models map[string]workload.Model
	apps   map[string]*usermetric.Client
	emitT  map[string]float64 // per job: last app-level emission time
}

// SimTime converts simulated seconds to the wall-clock timestamps stored in
// the database.
func SimTime(sec float64) time.Time {
	return SimEpoch.Add(time.Duration(sec * float64(time.Second)))
}

// NewSimulation builds the cluster and hooks it to the stack. The stack
// should have been created with Now returning the simulation clock; use
// NewSimulatedStack for the standard wiring.
func NewSimulation(stack *Stack, cfg SimConfig) (*Simulation, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: simulation needs nodes")
	}
	if cfg.Topology.NumHWThreads() == 0 {
		cfg.Topology = hpm.DefaultTopology()
	}
	if cfg.MemKBPerNode == 0 {
		cfg.MemKBPerNode = 64 * 1024 * 1024
	}
	if cfg.CollectInterval <= 0 {
		cfg.CollectInterval = 60
	}
	if len(cfg.HPMGroups) == 0 {
		cfg.HPMGroups = []string{"MEM_DP"}
	}
	var groups []*hpm.Group
	builtin := hpm.Builtin()
	for _, name := range cfg.HPMGroups {
		g, err := builtin.Lookup(name)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	sim := &Simulation{
		Stack:  stack,
		cfg:    cfg,
		models: make(map[string]workload.Model),
		apps:   make(map[string]*usermetric.Client),
		emitT:  make(map[string]float64),
	}

	var nodes []jobsched.Node
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%02d", i+1)
		machine, err := hpm.NewMachine(cfg.Topology)
		if err != nil {
			return nil, err
		}
		pstate, err := proc.NewState(name, cfg.Topology.NumHWThreads(), cfg.MemKBPerNode)
		if err != nil {
			return nil, err
		}
		agent, err := collector.New(collector.Config{
			Hostname: name,
			// The agent's flush delivers one encoded batch; hand it to the
			// router's batched entry point (same path as HTTP /write).
			Sink: stack.Router.IngestBatch,
		})
		if err != nil {
			return nil, err
		}
		plugins := []collector.Plugin{
			&collector.LoadPlugin{FS: pstate},
			&collector.CPUPlugin{FS: pstate},
			&collector.MemoryPlugin{FS: pstate},
			&collector.NetworkPlugin{FS: pstate},
			&collector.DiskPlugin{FS: pstate},
		}
		for _, g := range groups {
			plugins = append(plugins, &collector.HPMPlugin{Machine: machine, Group: g})
		}
		for _, p := range plugins {
			if err := agent.Register(p); err != nil {
				return nil, err
			}
		}
		sim.Nodes = append(sim.Nodes, &SimNode{
			Name:    name,
			Machine: machine,
			Proc:    pstate,
			Agent:   agent,
			cores:   cfg.Topology.NumHWThreads(),
		})
		nodes = append(nodes, jobsched.Node{Name: name, Cores: cfg.Topology.NumHWThreads()})
	}
	sched, err := jobsched.New(nodes)
	if err != nil {
		return nil, err
	}
	sim.Sched = sched
	return sim, nil
}

// NewSimulatedStack builds a Stack whose clock follows a simulation, then
// the simulation itself. Peak values for the pattern tree derive from the
// topology (AVX peak per core, ~12 GB/s per core stream bandwidth).
func NewSimulatedStack(scfg StackConfig, simCfg SimConfig) (*Stack, *Simulation, error) {
	var sim *Simulation
	scfg.Now = func() time.Time {
		if sim == nil {
			return SimEpoch
		}
		return SimTime(sim.now)
	}
	topo := simCfg.Topology
	if topo.NumHWThreads() == 0 {
		topo = hpm.DefaultTopology()
	}
	if scfg.PeakDPMFlops == 0 {
		// 8 DP flops/cycle AVX FMA-less peak per core.
		scfg.PeakDPMFlops = float64(topo.NumHWThreads()) * topo.BaseClockMHz * 8
	}
	if scfg.PeakMemBWMBs == 0 {
		// Achievable STREAM bandwidth, not the theoretical interface peak;
		// saturation thresholds are defined against what codes can reach.
		scfg.PeakMemBWMBs = float64(topo.Sockets) * 30000
	}
	stack, err := NewStack(scfg)
	if err != nil {
		return nil, nil, err
	}
	s, err := NewSimulation(stack, simCfg)
	if err != nil {
		_ = stack.Close()
		return nil, nil, err
	}
	sim = s
	return stack, sim, nil
}

// Now returns the simulation clock in seconds.
func (s *Simulation) Now() float64 { return s.now }

// SubmitJob queues a job whose per-node behaviour follows the model. The
// walltime defaults to the model duration.
func (s *Simulation) SubmitJob(req jobsched.JobRequest, model workload.Model) error {
	if model == nil {
		return fmt.Errorf("core: job %s has no workload model", req.ID)
	}
	if req.Walltime == 0 {
		req.Walltime = model.Duration()
	}
	if err := workload.Validate(model, s.cfg.Topology.NumHWThreads()); err != nil {
		return err
	}
	if err := s.Sched.Submit(req); err != nil {
		return err
	}
	s.models[req.ID] = model
	return nil
}

// node looks up a simulated node by name.
func (s *Simulation) node(name string) *SimNode {
	for _, n := range s.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// handleEvent translates one scheduler event into router signals and node
// state.
func (s *Simulation) handleEvent(ev jobsched.Event) error {
	job := ev.Job
	model := s.models[job.Req.ID]
	if ev.Start {
		sig := router.JobSignal{
			JobID: job.Req.ID,
			User:  job.Req.User,
			Nodes: job.Nodes,
			Tags:  job.Req.Tags,
		}
		if err := s.Stack.Router.JobStart(sig); err != nil {
			return err
		}
		for i, name := range job.Nodes {
			n := s.node(name)
			n.model = model
			if na, ok := model.(workload.NodeAware); ok {
				n.model = na.WithNodeIndex(i, len(job.Nodes))
			}
			n.jobStart = ev.Time
		}
		// Application-level client: one per job, sending via the router
		// like libusermetric over HTTP. The default tags bind the data to
		// the first node so the router attaches the job tags.
		if _, ok := model.(*workload.MiniMD); ok {
			c, err := usermetric.New(usermetric.Config{
				Sink:          s.Stack.Router.IngestBatch,
				DefaultTags:   map[string]string{"hostname": job.Nodes[0], "app": model.Name()},
				FlushInterval: -1,
				Now:           func() time.Time { return SimTime(s.now) },
			})
			if err != nil {
				return err
			}
			s.apps[job.Req.ID] = c
			s.emitT[job.Req.ID] = 0
			// The start event, as sent by the libusermetric command line
			// tool from the batch script (paper Fig. 3).
			_ = c.Event(fmt.Sprintf("%s start", model.Name()), nil)
			_ = c.Flush()
		}
		return nil
	}
	// Job end.
	if c, ok := s.apps[job.Req.ID]; ok {
		model := s.models[job.Req.ID]
		if mm, ok := model.(*workload.MiniMD); ok {
			s.emitAppSamples(job.Req.ID, mm, ev.Time-job.StartT)
		}
		_ = c.Event(fmt.Sprintf("%s end", model.Name()), nil)
		_ = c.Close()
		delete(s.apps, job.Req.ID)
		delete(s.emitT, job.Req.ID)
	}
	for _, name := range job.Nodes {
		n := s.node(name)
		n.model = nil
		for core := 0; core < n.cores; core++ {
			_ = n.Machine.Idle(core)
			_ = n.Proc.SetCPULoad(core, 0, 0)
		}
		n.Proc.SetRunnable(0)
		n.Proc.SetMemUsed(0)
		n.Proc.SetNetRates(0, 0)
		n.Proc.SetDiskRates(0, 0)
	}
	return s.Stack.Router.JobEnd(job.Req.ID)
}

// emitAppSamples sends the miniMD per-100-iteration metrics produced in
// (emitT, upTo] of job time.
func (s *Simulation) emitAppSamples(jobID string, mm *workload.MiniMD, upTo float64) {
	c := s.apps[jobID]
	if c == nil {
		return
	}
	last := s.emitT[jobID]
	for _, sample := range mm.Samples(last, upTo) {
		tags := map[string]string{"iteration": fmt.Sprint(sample.Iteration)}
		_ = c.MetricFields("minimd", map[string]lineproto.Value{
			"runtime_100iter": lineproto.Float(sample.Runtime100),
			"pressure":        lineproto.Float(sample.Pressure),
			"temperature":     lineproto.Float(sample.Temp),
			"energy":          lineproto.Float(sample.Energy),
		}, tags)
	}
	_ = c.Flush()
	s.emitT[jobID] = upTo
}

// applyProfiles installs the workload state on all nodes for the current
// simulated instant.
func (s *Simulation) applyProfiles() error {
	for _, n := range s.Nodes {
		if n.model == nil {
			continue
		}
		t := s.now - n.jobStart
		runnable := 0
		var netRx, netTx, diskR, diskW float64
		for core := 0; core < n.cores; core++ {
			p := n.model.ProfileAt(t, core)
			if err := n.Machine.SetRates(core, p.Rates(s.cfg.Topology.BaseClockMHz)); err != nil {
				return err
			}
			if err := n.Proc.SetCPULoad(core, p.UserFrac, p.SysFrac); err != nil {
				return err
			}
			if !p.Idle() {
				runnable++
				// MPI halo exchange and checkpoint traffic scale with the
				// core's activity in this simple model.
				netRx += p.MemBytes * 0.001
				netTx += p.MemBytes * 0.001
				diskR += 1e5
				diskW += 5e4
			}
		}
		n.Proc.SetRunnable(runnable)
		n.Proc.SetMemUsed(n.model.MemUsedKB(t))
		n.Proc.SetNetRates(netRx, netTx)
		n.Proc.SetDiskRates(diskR, diskW)
	}
	return nil
}

// Step advances the simulation by one collection interval: scheduler
// events, workload profiles, hardware/OS counters, agent collection and
// application-level emission.
func (s *Simulation) Step() error {
	dt := s.cfg.CollectInterval
	events, err := s.Sched.Advance(dt)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := s.handleEvent(ev); err != nil {
			return err
		}
	}
	if err := s.applyProfiles(); err != nil {
		return err
	}
	for _, n := range s.Nodes {
		if err := n.Machine.Advance(dt); err != nil {
			return err
		}
		if err := n.Proc.Tick(dt); err != nil {
			return err
		}
	}
	s.now += dt
	ts := SimTime(s.now)
	for _, n := range s.Nodes {
		if err := n.Agent.CollectAndPush(ts); err != nil {
			return err
		}
	}
	// Application-level samples for running miniMD jobs.
	for _, job := range s.Sched.Running() {
		if mm, ok := s.models[job.Req.ID].(*workload.MiniMD); ok {
			s.emitAppSamples(job.Req.ID, mm, s.now-job.StartT)
		}
	}
	return nil
}

// Run advances the simulation for the given number of simulated seconds.
func (s *Simulation) Run(seconds float64) error {
	steps := int(math.Ceil(seconds / s.cfg.CollectInterval))
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// JobMeta converts a scheduler job into the analysis metadata, using the
// simulation epoch mapping.
func (s *Simulation) JobMeta(job *jobsched.Job) analysis.JobMeta {
	meta := analysis.JobMeta{
		ID:    job.Req.ID,
		User:  job.Req.User,
		Nodes: append([]string(nil), job.Nodes...),
		Start: SimTime(job.StartT),
	}
	if job.State == jobsched.StateFinished {
		meta.End = SimTime(job.EndT)
	}
	return meta
}
