package hpm

import (
	"fmt"
	"strings"
)

// Group is a parsed performance group: an event-to-counter assignment plus
// derived-metric formulas, the LIKWID abstraction (paper Sect. II: "The
// portability with regard to HPM events is abstracted by using the
// performance groups offered by the LIKWID library").
type Group struct {
	Name    string
	Short   string
	Long    string
	Events  []EventAssign
	Metrics []Metric
}

// EventAssign maps one event onto a counter register.
type EventAssign struct {
	Counter string
	Event   Event
}

// Metric is one derived metric of a group.
type Metric struct {
	Name    string // includes the unit, e.g. "Memory bandwidth [MBytes/s]"
	Formula *Formula
}

// Environment variables every metric formula may reference in addition to
// the group's counter registers.
const (
	VarTime         = "time"         // measurement duration in seconds
	VarInverseClock = "inverseClock" // 1 / base clock in Hz
)

// ParseGroup parses the LIKWID performance-group file format:
//
//	SHORT <one line description>
//
//	EVENTSET
//	<COUNTER> <EVENT>
//	...
//
//	METRICS
//	<Metric name [unit]> <formula>
//	...
//
//	LONG
//	<free text until EOF>
//
// The formula is the last whitespace-separated token of a METRICS line;
// everything before it is the metric name. Lines starting with '#' are
// comments.
func ParseGroup(name, text string) (*Group, error) {
	g := &Group{Name: name}
	section := ""
	var longLines []string
	seenCounter := map[string]bool{}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if section != "LONG" {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
		}
		switch {
		case strings.HasPrefix(line, "SHORT"):
			g.Short = strings.TrimSpace(strings.TrimPrefix(line, "SHORT"))
			continue
		case line == "EVENTSET":
			section = "EVENTSET"
			continue
		case line == "METRICS":
			section = "METRICS"
			continue
		case line == "LONG":
			section = "LONG"
			continue
		}
		switch section {
		case "EVENTSET":
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("hpm: group %s line %d: want 'COUNTER EVENT', got %q", name, ln+1, line)
			}
			counter, evName := fields[0], fields[1]
			ev, err := LookupEvent(evName)
			if err != nil {
				return nil, fmt.Errorf("hpm: group %s line %d: %w", name, ln+1, err)
			}
			if err := ValidCounter(counter, ev.Scope); err != nil {
				return nil, fmt.Errorf("hpm: group %s line %d: %w", name, ln+1, err)
			}
			if seenCounter[counter] {
				return nil, fmt.Errorf("hpm: group %s line %d: counter %s assigned twice", name, ln+1, counter)
			}
			seenCounter[counter] = true
			g.Events = append(g.Events, EventAssign{Counter: counter, Event: ev})
		case "METRICS":
			idx := strings.LastIndexAny(line, " \t")
			if idx < 0 {
				return nil, fmt.Errorf("hpm: group %s line %d: metric needs name and formula", name, ln+1)
			}
			mname := strings.TrimSpace(line[:idx])
			fsrc := strings.TrimSpace(line[idx+1:])
			formula, err := CompileFormula(fsrc)
			if err != nil {
				return nil, fmt.Errorf("hpm: group %s line %d: %w", name, ln+1, err)
			}
			g.Metrics = append(g.Metrics, Metric{Name: mname, Formula: formula})
		case "LONG":
			longLines = append(longLines, raw)
		default:
			return nil, fmt.Errorf("hpm: group %s line %d: content outside any section: %q", name, ln+1, line)
		}
	}
	g.Long = strings.TrimSpace(strings.Join(longLines, "\n"))
	if len(g.Events) == 0 {
		return nil, fmt.Errorf("hpm: group %s: empty EVENTSET", name)
	}
	if len(g.Metrics) == 0 {
		return nil, fmt.Errorf("hpm: group %s: empty METRICS", name)
	}
	// Every formula variable must be an assigned counter or an environment
	// variable.
	for _, m := range g.Metrics {
		for _, v := range m.Formula.Variables() {
			if v == VarTime || v == VarInverseClock {
				continue
			}
			if !seenCounter[v] {
				return nil, fmt.Errorf("hpm: group %s metric %q: variable %q is not an assigned counter", name, m.Name, v)
			}
		}
	}
	return g, nil
}

// MetricNames lists the metric names in file order.
func (g *Group) MetricNames() []string {
	names := make([]string, len(g.Metrics))
	for i, m := range g.Metrics {
		names[i] = m.Name
	}
	return names
}

// builtinGroupTexts holds the group files shipped with the simulated
// architecture. The formulas follow the LIKWID originals for Intel
// Broadwell/Haswell; PWR_PKG_ENERGY counts microjoules in our simulation,
// hence the 1.0E-06 scaling in ENERGY.
var builtinGroupTexts = map[string]string{
	"FLOPS_DP": `SHORT Double precision MFLOP/s

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE
PMC1 FP_ARITH_INST_RETIRED_SCALAR_DOUBLE
PMC2 FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE

METRICS
Runtime (RDTSC) [s] time
Runtime unhalted [s] FIXC1*inverseClock
Clock [MHz] 1.0E-06*(FIXC1/FIXC2)/inverseClock
CPI FIXC1/FIXC0
IPC FIXC0/FIXC1
DP MFLOP/s 1.0E-06*(PMC0*2.0+PMC1+PMC2*4.0)/time
AVX DP MFLOP/s 1.0E-06*(PMC2*4.0)/time
Packed MUOPS/s 1.0E-06*(PMC0+PMC2)/time
Scalar MUOPS/s 1.0E-06*PMC1/time

LONG
Double precision floating point rates. SSE packed operations count two,
AVX packed operations four double precision flops per retired instruction.
`,
	"FLOPS_SP": `SHORT Single precision MFLOP/s

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 FP_ARITH_INST_RETIRED_128B_PACKED_SINGLE
PMC1 FP_ARITH_INST_RETIRED_SCALAR_SINGLE
PMC2 FP_ARITH_INST_RETIRED_256B_PACKED_SINGLE

METRICS
Runtime (RDTSC) [s] time
Clock [MHz] 1.0E-06*(FIXC1/FIXC2)/inverseClock
CPI FIXC1/FIXC0
SP MFLOP/s 1.0E-06*(PMC0*4.0+PMC1+PMC2*8.0)/time

LONG
Single precision floating point rates. SSE packed operations count four,
AVX packed operations eight single precision flops per retired instruction.
`,
	"MEM": `SHORT Main memory bandwidth

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
MBOX0C0 CAS_COUNT_RD
MBOX0C1 CAS_COUNT_WR

METRICS
Runtime (RDTSC) [s] time
CPI FIXC1/FIXC0
Memory read bandwidth [MBytes/s] 1.0E-06*MBOX0C0*64.0/time
Memory write bandwidth [MBytes/s] 1.0E-06*MBOX0C1*64.0/time
Memory bandwidth [MBytes/s] 1.0E-06*(MBOX0C0+MBOX0C1)*64.0/time
Memory data volume [GBytes] 1.0E-09*(MBOX0C0+MBOX0C1)*64.0

LONG
Main memory bandwidth measured at the memory controllers. Each CAS
operation transfers one 64 byte cache line.
`,
	"MEM_DP": `SHORT Memory bandwidth and double precision MFLOP/s

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE
PMC1 FP_ARITH_INST_RETIRED_SCALAR_DOUBLE
PMC2 FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE
MBOX0C0 CAS_COUNT_RD
MBOX0C1 CAS_COUNT_WR

METRICS
Runtime (RDTSC) [s] time
Clock [MHz] 1.0E-06*(FIXC1/FIXC2)/inverseClock
CPI FIXC1/FIXC0
IPC FIXC0/FIXC1
DP MFLOP/s 1.0E-06*(PMC0*2.0+PMC1+PMC2*4.0)/time
Memory bandwidth [MBytes/s] 1.0E-06*(MBOX0C0+MBOX0C1)*64.0/time
Memory data volume [GBytes] 1.0E-09*(MBOX0C0+MBOX0C1)*64.0
Operational intensity (PMC0*2.0+PMC1+PMC2*4.0)/((MBOX0C0+MBOX0C1)*64.0)

LONG
Combined group for roofline-style analysis and the pathological-job rules
of the monitoring stack: double precision FP rate, memory bandwidth and
the resulting operational intensity in a single measurement.
`,
	"L2": `SHORT L2 cache bandwidth

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 L1D_REPLACEMENT
PMC1 L1D_M_EVICT

METRICS
Runtime (RDTSC) [s] time
L2D load bandwidth [MBytes/s] 1.0E-06*PMC0*64.0/time
L2D evict bandwidth [MBytes/s] 1.0E-06*PMC1*64.0/time
L2 bandwidth [MBytes/s] 1.0E-06*(PMC0+PMC1)*64.0/time
L2 data volume [GBytes] 1.0E-09*(PMC0+PMC1)*64.0

LONG
Bandwidth between L1 and L2 caches derived from L1D replacements (loads)
and modified evicts (stores).
`,
	"L3": `SHORT L3 cache bandwidth

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 L2_LINES_IN_ALL
PMC1 L2_TRANS_L2_WB

METRICS
Runtime (RDTSC) [s] time
L3 load bandwidth [MBytes/s] 1.0E-06*PMC0*64.0/time
L3 evict bandwidth [MBytes/s] 1.0E-06*PMC1*64.0/time
L3 bandwidth [MBytes/s] 1.0E-06*(PMC0+PMC1)*64.0/time
L3 data volume [GBytes] 1.0E-09*(PMC0+PMC1)*64.0

LONG
Bandwidth between L2 and L3 caches derived from L2 line allocations and
L2 writebacks.
`,
	"CLOCK": `SHORT Cycles per instruction and clock frequency

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF

METRICS
Runtime (RDTSC) [s] time
Runtime unhalted [s] FIXC1*inverseClock
Clock [MHz] 1.0E-06*(FIXC1/FIXC2)/inverseClock
CPI FIXC1/FIXC0
IPC FIXC0/FIXC1
MIPS 1.0E-06*FIXC0/time

LONG
Basic execution efficiency: instruction throughput, cycles per
instruction and the effective core frequency.
`,
	"ENERGY": `SHORT Package energy and power

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PWR0 PWR_PKG_ENERGY

METRICS
Runtime (RDTSC) [s] time
Clock [MHz] 1.0E-06*(FIXC1/FIXC2)/inverseClock
CPI FIXC1/FIXC0
Energy [J] 1.0E-06*PWR0
Power [W] 1.0E-06*PWR0/time

LONG
RAPL package energy. The simulated PWR_PKG_ENERGY register counts
microjoules, hence the 1.0E-06 scaling.
`,
	"BRANCH": `SHORT Branch prediction

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 BR_INST_RETIRED_ALL_BRANCHES
PMC1 BR_MISP_RETIRED_ALL_BRANCHES

METRICS
Runtime (RDTSC) [s] time
Branch rate PMC0/FIXC0
Branch misprediction rate PMC1/FIXC0
Branch misprediction ratio PMC1/PMC0
Instructions per branch FIXC0/PMC0

LONG
Branch instruction density and prediction quality.
`,
	"DATA": `SHORT Load to store ratio

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 MEM_UOPS_RETIRED_LOADS
PMC1 MEM_UOPS_RETIRED_STORES

METRICS
Runtime (RDTSC) [s] time
Load to store ratio PMC0/PMC1
Load rate PMC0/FIXC0
Store rate PMC1/FIXC0

LONG
Ratio of retired load to store micro operations.
`,
	"TLB_DATA": `SHORT Data TLB misses

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
FIXC2 CPU_CLK_UNHALTED_REF
PMC0 DTLB_LOAD_MISSES_WALK_COMPLETED

METRICS
Runtime (RDTSC) [s] time
L1 DTLB load misses PMC0
L1 DTLB load miss rate PMC0/FIXC0

LONG
Completed page walks caused by DTLB load misses.
`,
}

var builtinGroups = func() map[string]*Group {
	m := make(map[string]*Group, len(builtinGroupTexts))
	for name, text := range builtinGroupTexts {
		g, err := ParseGroup(name, text)
		if err != nil {
			panic(err)
		}
		m[name] = g
	}
	return m
}()
