// Package workload provides synthetic application models that drive the
// simulated hardware (package hpm) and OS (package proc) counters.
//
// The paper evaluates LMS with real applications: Mantevo's miniMD proxy app
// for application-level monitoring (Fig. 3) and production jobs whose
// pathological behaviour shows up in the HPM timelines (Fig. 4). Since this
// reproduction has no silicon to run on, each workload is a small analytic
// model that produces, per simulated core and time, the hardware event rates
// a real run would generate: instructions, cycles, FP operations by SIMD
// width, cache and memory traffic, branches and package energy. The models
// are deliberately simple but dimensionally correct, so the derived LIKWID
// metrics land in physically plausible ranges (a bandwidth-bound triad
// sustains tens of GB/s per socket, a DGEMM reaches a large fraction of
// peak FLOP/s, an idle core counts nothing).
package workload

import (
	"fmt"
	"math"

	"repro/internal/hpm"
)

// CPUProfile is the steady-state execution profile of one core. All rates
// are per second of wall-clock time.
type CPUProfile struct {
	// ClockMHz is the effective core frequency; 0 means idle (halted).
	ClockMHz float64
	// IPC is instructions per core cycle.
	IPC float64
	// ScalarDP, SSEDP and AVXDP are retired FP instructions per second by
	// SIMD width (counting instructions, not flops).
	ScalarDP, SSEDP, AVXDP float64
	// ScalarSP, SSESP, AVXSP are the single-precision equivalents.
	ScalarSP, SSESP, AVXSP float64
	// MemBytes is DRAM traffic in bytes/s caused by this core (read+write,
	// split 2:1 read:write in the counter model).
	MemBytes float64
	// L2Bytes and L3Bytes are cache traffic in bytes/s.
	L2Bytes, L3Bytes float64
	// BranchFrac is the branch share of the instruction mix; MissRatio the
	// mispredicted fraction of branches.
	BranchFrac, MissRatio float64
	// LoadFrac and StoreFrac are the load/store shares of the instruction
	// mix.
	LoadFrac, StoreFrac float64
	// TLBMissRate is DTLB load-miss page walks per second.
	TLBMissRate float64
	// PowerWatts is the package power attributable to this core, including
	// its share of the socket baseline.
	PowerWatts float64
	// UserFrac and SysFrac are the OS-level CPU time shares for /proc.
	UserFrac, SysFrac float64
}

// Idle returns true for a halted-core profile.
func (p CPUProfile) Idle() bool { return p.ClockMHz <= 0 }

// Rates converts the profile into hardware event rates for the simulated
// machine. baseClockMHz is the reference clock of the machine.
func (p CPUProfile) Rates(baseClockMHz float64) hpm.EventRates {
	if p.Idle() {
		// A halted core still draws idle power.
		if p.PowerWatts > 0 {
			return hpm.EventRates{"PWR_PKG_ENERGY": p.PowerWatts * 1e6}
		}
		return nil
	}
	cycles := p.ClockMHz * 1e6
	instr := p.IPC * cycles
	lineRate := func(bytes float64) float64 { return bytes / 64.0 }
	r := hpm.EventRates{
		"INSTR_RETIRED_ANY":     instr,
		"CPU_CLK_UNHALTED_CORE": cycles,
		"CPU_CLK_UNHALTED_REF":  baseClockMHz * 1e6,
	}
	set := func(ev string, rate float64) {
		if rate > 0 {
			r[ev] = rate
		}
	}
	set("FP_ARITH_INST_RETIRED_SCALAR_DOUBLE", p.ScalarDP)
	set("FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE", p.SSEDP)
	set("FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE", p.AVXDP)
	set("FP_ARITH_INST_RETIRED_SCALAR_SINGLE", p.ScalarSP)
	set("FP_ARITH_INST_RETIRED_128B_PACKED_SINGLE", p.SSESP)
	set("FP_ARITH_INST_RETIRED_256B_PACKED_SINGLE", p.AVXSP)
	// DRAM traffic: 2/3 reads, 1/3 writes.
	set("CAS_COUNT_RD", lineRate(p.MemBytes*2/3))
	set("CAS_COUNT_WR", lineRate(p.MemBytes/3))
	// L2 traffic: loads dominate evictions 3:1 in the model.
	set("L1D_REPLACEMENT", lineRate(p.L2Bytes*3/4))
	set("L1D_M_EVICT", lineRate(p.L2Bytes/4))
	set("L2_LINES_IN_ALL", lineRate(p.L3Bytes*3/4))
	set("L2_TRANS_L2_WB", lineRate(p.L3Bytes/4))
	set("BR_INST_RETIRED_ALL_BRANCHES", instr*p.BranchFrac)
	set("BR_MISP_RETIRED_ALL_BRANCHES", instr*p.BranchFrac*p.MissRatio)
	set("MEM_UOPS_RETIRED_LOADS", instr*p.LoadFrac)
	set("MEM_UOPS_RETIRED_STORES", instr*p.StoreFrac)
	set("DTLB_LOAD_MISSES_WALK_COMPLETED", p.TLBMissRate)
	set("PWR_PKG_ENERGY", p.PowerWatts*1e6) // microjoules per second
	return r
}

// Model is a node-level workload: it answers which profile each core runs
// at a given time since job start, and how much memory the job has
// allocated.
type Model interface {
	// Name identifies the workload (used as application tag).
	Name() string
	// ProfileAt returns the profile of core `core` (0-based node-local) at
	// time t seconds after job start.
	ProfileAt(t float64, core int) CPUProfile
	// MemUsedKB returns the allocated memory at time t.
	MemUsedKB(t float64) uint64
	// Duration returns the job's nominal runtime in seconds.
	Duration() float64
}

// idleWatts is the per-core share of the socket idle power in all models.
const idleWatts = 4.0

// busyProfile assembles a generic busy profile used by several models.
func busyProfile(clockMHz, ipc float64) CPUProfile {
	return CPUProfile{
		ClockMHz:   clockMHz,
		IPC:        ipc,
		BranchFrac: 0.08,
		MissRatio:  0.02,
		LoadFrac:   0.25,
		StoreFrac:  0.12,
		UserFrac:   0.97,
		SysFrac:    0.02,
	}
}

// IdleProfile is a halted core drawing only idle power.
func IdleProfile() CPUProfile {
	return CPUProfile{PowerWatts: idleWatts}
}

// --- Triad: bandwidth-bound STREAM-like kernel -----------------------------

// Triad models a memory-bandwidth-bound streaming kernel
// (a[i] = b[i] + s*c[i]): low IPC, SSE/AVX flops limited by DRAM,
// saturating socket bandwidth.
type Triad struct {
	Cores       int     // active cores per node
	BWPerCore   float64 // sustained DRAM bytes/s per core
	RuntimeSecs float64
	MemKB       uint64
}

// NewTriad returns a triad workload with realistic defaults: 6 GB/s DRAM
// traffic per core, 20 GB working set.
func NewTriad(cores int, runtime float64) *Triad {
	return &Triad{Cores: cores, BWPerCore: 6e9, RuntimeSecs: runtime, MemKB: 20 * 1024 * 1024}
}

// Name implements Model.
func (w *Triad) Name() string { return "triad" }

// Duration implements Model.
func (w *Triad) Duration() float64 { return w.RuntimeSecs }

// MemUsedKB implements Model.
func (w *Triad) MemUsedKB(t float64) uint64 {
	if t < 0 || t > w.RuntimeSecs {
		return 0
	}
	return w.MemKB
}

// ProfileAt implements Model.
func (w *Triad) ProfileAt(t float64, core int) CPUProfile {
	if t < 0 || t > w.RuntimeSecs || core >= w.Cores {
		return IdleProfile()
	}
	p := busyProfile(2200, 0.7)
	// Triad: 2 flops per 24 bytes of traffic, executed as AVX.
	flops := w.BWPerCore / 24 * 2
	p.AVXDP = flops / 4
	p.MemBytes = w.BWPerCore
	p.L2Bytes = w.BWPerCore * 1.2
	p.L3Bytes = w.BWPerCore * 1.1
	p.PowerWatts = idleWatts + 5 + w.BWPerCore/1e9*0.8
	p.TLBMissRate = w.BWPerCore / (4096 * 8)
	return p
}

// --- DGEMM: compute-bound dense matrix multiply ----------------------------

// DGEMM models a compute-bound kernel running near peak FLOP/s with high
// IPC and cache-resident data.
type DGEMM struct {
	Cores       int
	FlopsPerSec float64 // per core, sustained
	RuntimeSecs float64
	MemKB       uint64
}

// NewDGEMM returns a DGEMM workload sustaining 12 GFLOP/s per core.
func NewDGEMM(cores int, runtime float64) *DGEMM {
	return &DGEMM{Cores: cores, FlopsPerSec: 12e9, RuntimeSecs: runtime, MemKB: 8 * 1024 * 1024}
}

// Name implements Model.
func (w *DGEMM) Name() string { return "dgemm" }

// Duration implements Model.
func (w *DGEMM) Duration() float64 { return w.RuntimeSecs }

// MemUsedKB implements Model.
func (w *DGEMM) MemUsedKB(t float64) uint64 {
	if t < 0 || t > w.RuntimeSecs {
		return 0
	}
	return w.MemKB
}

// ProfileAt implements Model.
func (w *DGEMM) ProfileAt(t float64, core int) CPUProfile {
	if t < 0 || t > w.RuntimeSecs || core >= w.Cores {
		return IdleProfile()
	}
	p := busyProfile(2800, 2.5) // turbo clock, high ILP
	p.AVXDP = w.FlopsPerSec / 4
	p.MemBytes = w.FlopsPerSec / 100 // high operational intensity
	p.L2Bytes = w.FlopsPerSec / 4
	p.L3Bytes = w.FlopsPerSec / 20
	p.PowerWatts = idleWatts + 14
	return p
}

// --- LoadImbalance: unreasonable strong scaling ----------------------------

// LoadImbalance models a badly decomposed parallel run, the "unreasonable
// strong scaling" pathology of Sect. I: on the first node core 0 does all
// the work while the remaining cores spin in the barrier (high instruction
// count, no flops); all other nodes of the job spin entirely.
type LoadImbalance struct {
	Cores       int
	RuntimeSecs float64
	// NodeIndex is this node's rank within the job (set via WithNodeIndex;
	// node 0 hosts the working core).
	NodeIndex int
}

// NodeAware lets the simulation derive per-node variants of a model, for
// workloads whose behaviour differs across the job's nodes.
type NodeAware interface {
	// WithNodeIndex returns the model as seen by node i of total nodes.
	WithNodeIndex(i, total int) Model
}

// WithNodeIndex implements NodeAware.
func (w *LoadImbalance) WithNodeIndex(i, total int) Model {
	cp := *w
	cp.NodeIndex = i
	return &cp
}

// Name implements Model.
func (w *LoadImbalance) Name() string { return "imbalance" }

// Duration implements Model.
func (w *LoadImbalance) Duration() float64 { return w.RuntimeSecs }

// MemUsedKB implements Model.
func (w *LoadImbalance) MemUsedKB(t float64) uint64 {
	if t < 0 || t > w.RuntimeSecs {
		return 0
	}
	return 4 * 1024 * 1024
}

// ProfileAt implements Model.
func (w *LoadImbalance) ProfileAt(t float64, core int) CPUProfile {
	if t < 0 || t > w.RuntimeSecs || core >= w.Cores {
		return IdleProfile()
	}
	if core == 0 && w.NodeIndex == 0 {
		p := busyProfile(2200, 1.8)
		p.AVXDP = 2e9
		p.MemBytes = 2e9
		p.L2Bytes = 4e9
		p.L3Bytes = 2.5e9
		p.PowerWatts = idleWatts + 12
		return p
	}
	// Spin-waiting: full speed, no useful work.
	p := busyProfile(2200, 1.0)
	p.BranchFrac = 0.4 // tight test-and-branch loop
	p.MissRatio = 0.001
	p.PowerWatts = idleWatts + 8
	return p
}

// --- MemoryLeak: exceeded memory capacity ----------------------------------

// MemoryLeak models a job whose allocated memory grows linearly until it
// exceeds the node capacity (the "exceeded memory capacity" pathology).
type MemoryLeak struct {
	Cores       int
	RuntimeSecs float64
	StartKB     uint64
	LeakKBPerS  float64
}

// Name implements Model.
func (w *MemoryLeak) Name() string { return "memleak" }

// Duration implements Model.
func (w *MemoryLeak) Duration() float64 { return w.RuntimeSecs }

// MemUsedKB implements Model.
func (w *MemoryLeak) MemUsedKB(t float64) uint64 {
	if t < 0 || t > w.RuntimeSecs {
		return 0
	}
	return w.StartKB + uint64(w.LeakKBPerS*t)
}

// ProfileAt implements Model.
func (w *MemoryLeak) ProfileAt(t float64, core int) CPUProfile {
	if t < 0 || t > w.RuntimeSecs || core >= w.Cores {
		return IdleProfile()
	}
	p := busyProfile(2200, 1.1)
	p.ScalarDP = 5e8
	p.MemBytes = 1e9
	p.L2Bytes = 2e9
	p.PowerWatts = idleWatts + 9
	p.SysFrac = 0.15 // allocation churn shows as system time
	p.UserFrac = 0.8
	return p
}

// --- IdleBreak: the Fig. 4 pathological job --------------------------------

// IdleBreak models the four-node job of paper Fig. 4: normal computation,
// then a long break (input starvation / hung rank) during which FP rate and
// memory bandwidth collapse below thresholds, then computation resumes.
type IdleBreak struct {
	Cores       int
	RuntimeSecs float64
	// BreakStart and BreakEnd delimit the idle window in job time.
	BreakStart, BreakEnd float64
	Inner                Model // behaviour outside the break
}

// NewIdleBreak wraps a triad phase with an idle window. The defaults
// reproduce Fig. 4: a break longer than the 10-minute rule timeout.
func NewIdleBreak(cores int, runtime, breakStart, breakEnd float64) *IdleBreak {
	return &IdleBreak{
		Cores:       cores,
		RuntimeSecs: runtime,
		BreakStart:  breakStart,
		BreakEnd:    breakEnd,
		Inner:       NewTriad(cores, runtime),
	}
}

// Name implements Model.
func (w *IdleBreak) Name() string { return "idlebreak" }

// Duration implements Model.
func (w *IdleBreak) Duration() float64 { return w.RuntimeSecs }

// MemUsedKB implements Model.
func (w *IdleBreak) MemUsedKB(t float64) uint64 { return w.Inner.MemUsedKB(t) }

// ProfileAt implements Model.
func (w *IdleBreak) ProfileAt(t float64, core int) CPUProfile {
	if t >= w.BreakStart && t < w.BreakEnd {
		// Waiting in a blocking read: core nearly idle, tiny system load.
		p := IdleProfile()
		if core == 0 && core < w.Cores {
			p = busyProfile(2200, 0.3)
			p.ClockMHz = 1200 // frequency drops when stalled
			p.UserFrac = 0.01
			p.SysFrac = 0.01
			p.PowerWatts = idleWatts + 1
		}
		return p
	}
	return w.Inner.ProfileAt(t, core)
}

// --- Sanity helpers --------------------------------------------------------

// Validate checks a model for basic consistency over its lifetime; used by
// tests and the simulation driver to reject broken custom models.
func Validate(m Model, cores int) error {
	if m.Duration() <= 0 {
		return fmt.Errorf("workload %s: non-positive duration", m.Name())
	}
	for _, t := range []float64{0, m.Duration() / 2, m.Duration() - 0.001} {
		for core := 0; core < cores; core++ {
			p := m.ProfileAt(t, core)
			if p.ClockMHz < 0 || p.IPC < 0 || p.MemBytes < 0 || p.PowerWatts < 0 {
				return fmt.Errorf("workload %s: negative rate at t=%v core=%d", m.Name(), t, core)
			}
			if p.UserFrac < 0 || p.SysFrac < 0 || p.UserFrac+p.SysFrac > 1.001 {
				return fmt.Errorf("workload %s: bad cpu fractions at t=%v core=%d", m.Name(), t, core)
			}
			if !p.Idle() && p.IPC == 0 {
				return fmt.Errorf("workload %s: busy core with zero IPC at t=%v core=%d", m.Name(), t, core)
			}
		}
	}
	return nil
}

// jitter derives a deterministic pseudo-random factor in [1-amp, 1+amp]
// from a time value, giving the models natural-looking noise without any
// global RNG state.
func jitter(t, amp float64) float64 {
	x := math.Sin(t*12.9898+78.233) * 43758.5453
	frac := x - math.Floor(x)
	return 1 + amp*(2*frac-1)
}
