// Package proc simulates the Linux /proc interface of a compute node and
// provides parsers for the snapshot formats.
//
// LMS host agents (Diamond, cronjobs, Ganglia gmond — paper Sect. III-A)
// obtain system-level metrics (CPU load, allocated memory size, network and
// file I/O, Sect. V) by reading /proc. In this reproduction each simulated
// node owns a proc.State whose counters are driven by the workload model;
// the State renders textual snapshots in the exact /proc formats
// (/proc/loadavg, /proc/stat, /proc/meminfo, /proc/net/dev,
// /proc/diskstats) and the collector plugins parse them back, so the full
// agent code path runs against realistic inputs.
package proc

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Jiffies per second, the USER_HZ constant of Linux.
const UserHZ = 100

// CPUTimes is the per-CPU jiffy breakdown of /proc/stat.
type CPUTimes struct {
	User, Nice, System, Idle, IOWait, IRQ, SoftIRQ uint64
}

// Total returns the sum of all jiffy classes.
func (c CPUTimes) Total() uint64 {
	return c.User + c.Nice + c.System + c.Idle + c.IOWait + c.IRQ + c.SoftIRQ
}

// NetCounters are the cumulative per-interface counters of /proc/net/dev.
type NetCounters struct {
	RxBytes, RxPackets, TxBytes, TxPackets uint64
}

// DiskCounters are the cumulative per-device counters of /proc/diskstats
// (the subset the monitoring uses: completed I/Os and 512-byte sectors).
type DiskCounters struct {
	ReadIOs, ReadSectors, WriteIOs, WriteSectors uint64
}

// State is the simulated OS state of one node.
type State struct {
	mu sync.Mutex

	hostname string
	ncpu     int

	// Dynamic inputs (set by the workload model).
	busyFrac  []float64 // 0..1 per cpu, share of time spent in user code
	sysFrac   []float64 // share spent in system code
	memUsedKB uint64
	rxRate    float64 // bytes/s on eth0
	txRate    float64
	readRate  float64 // bytes/s on sda
	writeRate float64
	procs     int // runnable process count fed into the load average

	// Accumulated counters.
	cpus     []CPUTimes
	net      NetCounters
	disk     DiskCounters
	memTotal uint64 // KB
	load1    float64
	load5    float64
	load15   float64

	fracUser []float64
	fracSys  []float64
	fracIdle []float64
	fracNet  [4]float64
	fracDisk [4]float64
}

// NewState boots a simulated node with the given CPU count and memory size.
func NewState(hostname string, ncpu int, memTotalKB uint64) (*State, error) {
	if ncpu <= 0 {
		return nil, fmt.Errorf("proc: invalid cpu count %d", ncpu)
	}
	if memTotalKB == 0 {
		return nil, fmt.Errorf("proc: zero memory size")
	}
	return &State{
		hostname: hostname,
		ncpu:     ncpu,
		busyFrac: make([]float64, ncpu),
		sysFrac:  make([]float64, ncpu),
		cpus:     make([]CPUTimes, ncpu),
		memTotal: memTotalKB,
		fracUser: make([]float64, ncpu),
		fracSys:  make([]float64, ncpu),
		fracIdle: make([]float64, ncpu),
	}, nil
}

// SetCPULoad sets the user/system busy fractions of one CPU (clamped to
// [0,1], combined at most 1).
func (s *State) SetCPULoad(cpu int, user, system float64) error {
	if cpu < 0 || cpu >= s.ncpu {
		return fmt.Errorf("proc: cpu %d out of range [0,%d)", cpu, s.ncpu)
	}
	user = clamp01(user)
	system = clamp01(system)
	if user+system > 1 {
		system = 1 - user
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busyFrac[cpu] = user
	s.sysFrac[cpu] = system
	return nil
}

// SetRunnable sets the number of runnable processes, the input of the load
// average.
func (s *State) SetRunnable(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.procs = n
}

// SetMemUsed sets the currently allocated memory in KB (clamped to total).
func (s *State) SetMemUsed(kb uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kb > s.memTotal {
		kb = s.memTotal
	}
	s.memUsedKB = kb
}

// SetNetRates sets the instantaneous network throughput in bytes/s.
func (s *State) SetNetRates(rx, tx float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rxRate = math.Max(rx, 0)
	s.txRate = math.Max(tx, 0)
}

// SetDiskRates sets the instantaneous file I/O throughput in bytes/s.
func (s *State) SetDiskRates(read, write float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readRate = math.Max(read, 0)
	s.writeRate = math.Max(write, 0)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Tick advances the simulated OS by dt seconds: jiffy counters accumulate
// according to the configured rates and the load averages decay toward the
// runnable count with the kernel's exponential smoothing.
func (s *State) Tick(dt float64) error {
	if dt < 0 {
		return fmt.Errorf("proc: negative dt %v", dt)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	jiffies := dt * UserHZ
	for i := 0; i < s.ncpu; i++ {
		addFrac := func(acc *uint64, frac *float64, share float64) {
			v := share*jiffies + *frac
			whole := uint64(v)
			*frac = v - float64(whole)
			*acc += whole
		}
		addFrac(&s.cpus[i].User, &s.fracUser[i], s.busyFrac[i])
		addFrac(&s.cpus[i].System, &s.fracSys[i], s.sysFrac[i])
		addFrac(&s.cpus[i].Idle, &s.fracIdle[i], 1-s.busyFrac[i]-s.sysFrac[i])
	}
	addRate := func(acc *uint64, frac *float64, rate float64) {
		v := rate*dt + *frac
		whole := uint64(v)
		*frac = v - float64(whole)
		*acc += whole
	}
	addRate(&s.net.RxBytes, &s.fracNet[0], s.rxRate)
	addRate(&s.net.TxBytes, &s.fracNet[1], s.txRate)
	addRate(&s.net.RxPackets, &s.fracNet[2], s.rxRate/1400)
	addRate(&s.net.TxPackets, &s.fracNet[3], s.txRate/1400)
	addRate(&s.disk.ReadSectors, &s.fracDisk[0], s.readRate/512)
	addRate(&s.disk.WriteSectors, &s.fracDisk[1], s.writeRate/512)
	addRate(&s.disk.ReadIOs, &s.fracDisk[2], s.readRate/4096)
	addRate(&s.disk.WriteIOs, &s.fracDisk[3], s.writeRate/4096)

	// Kernel load average: exp decay with time constants 1/5/15 minutes.
	n := float64(s.procs)
	decay := func(load *float64, periodSec float64) {
		e := math.Exp(-dt / periodSec)
		*load = *load*e + n*(1-e)
	}
	decay(&s.load1, 60)
	decay(&s.load5, 300)
	decay(&s.load15, 900)
	return nil
}

// LoadAvg renders /proc/loadavg.
func (s *State) LoadAvg() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("%.2f %.2f %.2f %d/%d 12345\n",
		s.load1, s.load5, s.load15, s.procs, 200+s.procs)
}

// Stat renders /proc/stat (aggregate cpu line plus per-cpu lines).
func (s *State) Stat() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	var agg CPUTimes
	for _, c := range s.cpus {
		agg.User += c.User
		agg.Nice += c.Nice
		agg.System += c.System
		agg.Idle += c.Idle
		agg.IOWait += c.IOWait
		agg.IRQ += c.IRQ
		agg.SoftIRQ += c.SoftIRQ
	}
	writeLine := func(name string, c CPUTimes) {
		fmt.Fprintf(&b, "%s %d %d %d %d %d %d %d 0 0 0\n",
			name, c.User, c.Nice, c.System, c.Idle, c.IOWait, c.IRQ, c.SoftIRQ)
	}
	writeLine("cpu", agg)
	for i, c := range s.cpus {
		writeLine(fmt.Sprintf("cpu%d", i), c)
	}
	fmt.Fprintf(&b, "ctxt 123456\nprocesses 4242\nprocs_running %d\n", s.procs)
	return b.String()
}

// Meminfo renders /proc/meminfo (the fields monitoring reads).
func (s *State) Meminfo() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.memTotal - s.memUsedKB
	cached := free / 10
	if cached > free {
		cached = free
	}
	return fmt.Sprintf(
		"MemTotal:       %d kB\nMemFree:        %d kB\nMemAvailable:   %d kB\nBuffers:        %d kB\nCached:         %d kB\nSwapTotal:      0 kB\nSwapFree:       0 kB\n",
		s.memTotal, free-cached, free, uint64(0), cached)
}

// NetDev renders /proc/net/dev with lo and eth0.
func (s *State) NetDev() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteString("Inter-|   Receive                                                |  Transmit\n")
	b.WriteString(" face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n")
	fmt.Fprintf(&b, "    lo: %8d %7d    0    0    0     0          0         0 %8d %7d    0    0    0     0       0          0\n",
		0, 0, 0, 0)
	fmt.Fprintf(&b, "  eth0: %8d %7d    0    0    0     0          0         0 %8d %7d    0    0    0     0       0          0\n",
		s.net.RxBytes, s.net.RxPackets, s.net.TxBytes, s.net.TxPackets)
	return b.String()
}

// Diskstats renders /proc/diskstats with one device (sda).
func (s *State) Diskstats() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("   8       0 sda %d 0 %d 0 %d 0 %d 0 0 0 0\n",
		s.disk.ReadIOs, s.disk.ReadSectors, s.disk.WriteIOs, s.disk.WriteSectors)
}
