// Package hpm is the hardware-performance-monitoring substrate of the LMS
// reproduction: a from-scratch, simulation-backed re-implementation of the
// parts of the LIKWID tools library the monitoring stack builds on
// (paper Sect. II and V).
//
// LIKWID abstracts processor-specific raw events behind *performance
// groups*: named event sets plus formulas for derived metrics (IPC, DP
// MFLOP/s, memory bandwidth, power, ...). LMS consumes only those derived
// metrics, which is what makes it portable across architectures. This
// package reproduces the full pipeline:
//
//	topology -> event catalog -> group files -> counter registers ->
//	measurement session -> derived metrics
//
// with the silicon replaced by a simulated Machine whose counters are driven
// by synthetic workload rate functions (see package workload). Counter
// registers wrap at 48 bits like real x86 PMCs, and the session logic
// handles the overflow, so the software path is exercised end to end.
package hpm

import "fmt"

// Topology describes the simulated machine layout, the equivalent of
// likwid-topology output.
type Topology struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// BaseClockMHz is the nominal (reference) clock.
	BaseClockMHz float64
}

// DefaultTopology mirrors the dual-socket 10-core Haswell nodes of the
// RRZE "Emmy" cluster the authors operate.
func DefaultTopology() Topology {
	return Topology{Sockets: 2, CoresPerSocket: 10, ThreadsPerCore: 1, BaseClockMHz: 2200}
}

// Validate checks the topology for positive dimensions.
func (t Topology) Validate() error {
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 || t.ThreadsPerCore <= 0 {
		return fmt.Errorf("hpm: invalid topology %+v", t)
	}
	if t.BaseClockMHz <= 0 {
		return fmt.Errorf("hpm: invalid base clock %v", t.BaseClockMHz)
	}
	return nil
}

// NumHWThreads returns the total hardware thread count.
func (t Topology) NumHWThreads() int {
	return t.Sockets * t.CoresPerSocket * t.ThreadsPerCore
}

// SocketOf returns the socket that owns hardware thread id.
func (t Topology) SocketOf(id int) (int, error) {
	if id < 0 || id >= t.NumHWThreads() {
		return 0, fmt.Errorf("hpm: hwthread %d out of range [0,%d)", id, t.NumHWThreads())
	}
	return id / (t.CoresPerSocket * t.ThreadsPerCore), nil
}
