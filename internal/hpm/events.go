package hpm

import "fmt"

// Scope says at which topological entity an event is counted. Core-scope
// events live in per-hardware-thread counters (PMC/FIXC), socket-scope
// events in uncore counters (memory controller boxes, RAPL energy).
type Scope uint8

// Event scopes.
const (
	ScopeThread Scope = iota
	ScopeSocket
)

// String returns "thread" or "socket".
func (s Scope) String() string {
	if s == ScopeSocket {
		return "socket"
	}
	return "thread"
}

// Event describes one countable hardware event.
type Event struct {
	Name  string
	Scope Scope
	Desc  string
}

// eventCatalog is the architectural event list of the simulated CPU. Names
// follow the Intel/LIKWID convention so the built-in group files read like
// the originals.
var eventCatalog = map[string]Event{
	// Fixed-purpose core counters.
	"INSTR_RETIRED_ANY":     {Name: "INSTR_RETIRED_ANY", Scope: ScopeThread, Desc: "retired instructions"},
	"CPU_CLK_UNHALTED_CORE": {Name: "CPU_CLK_UNHALTED_CORE", Scope: ScopeThread, Desc: "core cycles while not halted"},
	"CPU_CLK_UNHALTED_REF":  {Name: "CPU_CLK_UNHALTED_REF", Scope: ScopeThread, Desc: "reference cycles while not halted"},
	// Floating point (double precision).
	"FP_ARITH_INST_RETIRED_SCALAR_DOUBLE":      {Name: "FP_ARITH_INST_RETIRED_SCALAR_DOUBLE", Scope: ScopeThread, Desc: "scalar DP ops"},
	"FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE": {Name: "FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE", Scope: ScopeThread, Desc: "SSE packed DP ops"},
	"FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE": {Name: "FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE", Scope: ScopeThread, Desc: "AVX packed DP ops"},
	// Floating point (single precision).
	"FP_ARITH_INST_RETIRED_SCALAR_SINGLE":      {Name: "FP_ARITH_INST_RETIRED_SCALAR_SINGLE", Scope: ScopeThread, Desc: "scalar SP ops"},
	"FP_ARITH_INST_RETIRED_128B_PACKED_SINGLE": {Name: "FP_ARITH_INST_RETIRED_128B_PACKED_SINGLE", Scope: ScopeThread, Desc: "SSE packed SP ops"},
	"FP_ARITH_INST_RETIRED_256B_PACKED_SINGLE": {Name: "FP_ARITH_INST_RETIRED_256B_PACKED_SINGLE", Scope: ScopeThread, Desc: "AVX packed SP ops"},
	// Cache traffic.
	"L1D_REPLACEMENT": {Name: "L1D_REPLACEMENT", Scope: ScopeThread, Desc: "L1D lines loaded from L2"},
	"L1D_M_EVICT":     {Name: "L1D_M_EVICT", Scope: ScopeThread, Desc: "modified L1D lines evicted to L2"},
	"L2_LINES_IN_ALL": {Name: "L2_LINES_IN_ALL", Scope: ScopeThread, Desc: "L2 lines loaded from L3"},
	"L2_TRANS_L2_WB":  {Name: "L2_TRANS_L2_WB", Scope: ScopeThread, Desc: "L2 writebacks to L3"},
	// Branches.
	"BR_INST_RETIRED_ALL_BRANCHES": {Name: "BR_INST_RETIRED_ALL_BRANCHES", Scope: ScopeThread, Desc: "retired branch instructions"},
	"BR_MISP_RETIRED_ALL_BRANCHES": {Name: "BR_MISP_RETIRED_ALL_BRANCHES", Scope: ScopeThread, Desc: "mispredicted branches"},
	// Loads/stores.
	"MEM_UOPS_RETIRED_LOADS":  {Name: "MEM_UOPS_RETIRED_LOADS", Scope: ScopeThread, Desc: "retired load uops"},
	"MEM_UOPS_RETIRED_STORES": {Name: "MEM_UOPS_RETIRED_STORES", Scope: ScopeThread, Desc: "retired store uops"},
	// TLB.
	"DTLB_LOAD_MISSES_WALK_COMPLETED": {Name: "DTLB_LOAD_MISSES_WALK_COMPLETED", Scope: ScopeThread, Desc: "DTLB load miss page walks"},
	// Uncore: memory controller channel counters (cache lines).
	"CAS_COUNT_RD": {Name: "CAS_COUNT_RD", Scope: ScopeSocket, Desc: "DRAM read cache lines"},
	"CAS_COUNT_WR": {Name: "CAS_COUNT_WR", Scope: ScopeSocket, Desc: "DRAM written cache lines"},
	// Uncore: RAPL package energy, counted in microjoules.
	"PWR_PKG_ENERGY": {Name: "PWR_PKG_ENERGY", Scope: ScopeSocket, Desc: "package energy (uJ)"},
}

// LookupEvent resolves an event name against the catalog.
func LookupEvent(name string) (Event, error) {
	ev, ok := eventCatalog[name]
	if !ok {
		return Event{}, fmt.Errorf("hpm: unknown event %q", name)
	}
	return ev, nil
}

// counterRegisters is the set of counter register names a group file may
// assign events to, with the scope each register can serve.
var counterRegisters = map[string]Scope{
	"FIXC0": ScopeThread, "FIXC1": ScopeThread, "FIXC2": ScopeThread,
	"PMC0": ScopeThread, "PMC1": ScopeThread, "PMC2": ScopeThread,
	"PMC3": ScopeThread, "PMC4": ScopeThread, "PMC5": ScopeThread,
	"MBOX0C0": ScopeSocket, "MBOX0C1": ScopeSocket,
	"PWR0": ScopeSocket,
}

// ValidCounter reports whether reg names a counter register and whether its
// scope can host the given event scope.
func ValidCounter(reg string, scope Scope) error {
	s, ok := counterRegisters[reg]
	if !ok {
		return fmt.Errorf("hpm: unknown counter register %q", reg)
	}
	if s != scope {
		return fmt.Errorf("hpm: counter %q is %s-scope, event is %s-scope", reg, s, scope)
	}
	return nil
}
