package hpm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testTopo() Topology {
	return Topology{Sockets: 2, CoresPerSocket: 4, ThreadsPerCore: 1, BaseClockMHz: 2000}
}

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(testTopo())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// group resolves a built-in performance group.
func group(t *testing.T, name string) *Group {
	t.Helper()
	g, err := Builtin().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTopologyBasics(t *testing.T) {
	topo := testTopo()
	if topo.NumHWThreads() != 8 {
		t.Fatalf("threads %d", topo.NumHWThreads())
	}
	s, err := topo.SocketOf(5)
	if err != nil || s != 1 {
		t.Fatalf("SocketOf(5)=%d,%v", s, err)
	}
	if _, err := topo.SocketOf(8); err == nil {
		t.Fatal("out of range accepted")
	}
	if err := (Topology{}).Validate(); err == nil {
		t.Fatal("zero topology accepted")
	}
	if err := (Topology{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1}).Validate(); err == nil {
		t.Fatal("zero clock accepted")
	}
}

func TestTopologySMT(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2, BaseClockMHz: 2000}
	if topo.NumHWThreads() != 8 {
		t.Fatalf("threads %d", topo.NumHWThreads())
	}
	// Both SMT threads of both cores of socket 0 come first.
	for id, want := range []int{0, 0, 0, 0, 1, 1, 1, 1} {
		if s, err := topo.SocketOf(id); err != nil || s != want {
			t.Fatalf("SocketOf(%d)=%d,%v want %d", id, s, err, want)
		}
	}
}

func TestEventCatalog(t *testing.T) {
	ev, err := LookupEvent("CAS_COUNT_RD")
	if err != nil || ev.Scope != ScopeSocket {
		t.Fatalf("%+v %v", ev, err)
	}
	ev, err = LookupEvent("INSTR_RETIRED_ANY")
	if err != nil || ev.Scope != ScopeThread {
		t.Fatalf("%+v %v", ev, err)
	}
	if _, err := LookupEvent("MADE_UP"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if len(eventCatalog) < 15 {
		t.Fatalf("catalog too small: %d", len(eventCatalog))
	}
	if ScopeThread.String() != "thread" || ScopeSocket.String() != "socket" {
		t.Fatal("scope strings")
	}
}

func TestValidCounter(t *testing.T) {
	if err := ValidCounter("PMC0", ScopeThread); err != nil {
		t.Fatal(err)
	}
	if err := ValidCounter("PMC0", ScopeSocket); err == nil {
		t.Fatal("scope mismatch accepted")
	}
	if err := ValidCounter("XYZ0", ScopeThread); err == nil {
		t.Fatal("unknown register accepted")
	}
	if err := ValidCounter("MBOX0C0", ScopeSocket); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinGroupsParse(t *testing.T) {
	names := Builtin().Names()
	if len(names) < 10 {
		t.Fatalf("only %d groups", len(names))
	}
	for _, n := range names {
		g, err := Builtin().Lookup(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if g.Short == "" || len(g.Events) == 0 || len(g.Metrics) == 0 {
			t.Errorf("%s: incomplete group %+v", n, g)
		}
		if g.Long == "" {
			t.Errorf("%s: missing LONG section", n)
		}
	}
	if _, err := Builtin().Lookup("NOPE"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestGroupHelpers(t *testing.T) {
	g := group(t, "FLOPS_DP")
	names := g.MetricNames()
	found := false
	for _, n := range names {
		if n == "DP MFLOP/s" {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics %v", names)
	}
}

func TestParseGroupErrors(t *testing.T) {
	bad := map[string]string{
		"empty":          "",
		"no metrics":     "EVENTSET\nFIXC0 INSTR_RETIRED_ANY\n",
		"no events":      "METRICS\nX time\n",
		"bad event":      "EVENTSET\nFIXC0 NO_SUCH_EVENT\nMETRICS\nX time\n",
		"bad counter":    "EVENTSET\nZZZ INSTR_RETIRED_ANY\nMETRICS\nX time\n",
		"scope mismatch": "EVENTSET\nPMC0 CAS_COUNT_RD\nMETRICS\nX time\n",
		"dup counter":    "EVENTSET\nFIXC0 INSTR_RETIRED_ANY\nFIXC0 CPU_CLK_UNHALTED_CORE\nMETRICS\nX time\n",
		"bad formula":    "EVENTSET\nFIXC0 INSTR_RETIRED_ANY\nMETRICS\nX ((\n",
		"free var":       "EVENTSET\nFIXC0 INSTR_RETIRED_ANY\nMETRICS\nX PMC0/time\n",
		"stray line":     "hello\nEVENTSET\nFIXC0 INSTR_RETIRED_ANY\nMETRICS\nX time\n",
		"eventset junk":  "EVENTSET\nFIXC0 INSTR_RETIRED_ANY extra\nMETRICS\nX time\n",
		"metric no name": "EVENTSET\nFIXC0 INSTR_RETIRED_ANY\nMETRICS\ntime\n",
	}
	for label, text := range bad {
		if _, err := ParseGroup("T", text); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestParseGroupComments(t *testing.T) {
	g, err := ParseGroup("C", `SHORT test
# a comment
EVENTSET
# another
FIXC0 INSTR_RETIRED_ANY

METRICS
MIPS 1.0E-06*FIXC0/time
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Events) != 1 || len(g.Metrics) != 1 {
		t.Fatalf("%+v", g)
	}
}

func TestMachineAdvance(t *testing.T) {
	m := newTestMachine(t)
	err := m.SetRates(0, EventRates{
		"INSTR_RETIRED_ANY":     2e9,
		"CPU_CLK_UNHALTED_CORE": 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(2.5); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadThreadCounter(0, "INSTR_RETIRED_ANY")
	if err != nil {
		t.Fatal(err)
	}
	if v != 5e9 {
		t.Fatalf("instr %d", v)
	}
	v, _ = m.ReadThreadCounter(0, "CPU_CLK_UNHALTED_CORE")
	if v != 25e8 {
		t.Fatalf("cycles %d", v)
	}
	// Other thread untouched.
	v, _ = m.ReadThreadCounter(1, "INSTR_RETIRED_ANY")
	if v != 0 {
		t.Fatalf("thread 1 instr %d", v)
	}
	if m.Now() != 2.5 {
		t.Fatalf("now %v", m.Now())
	}
}

func TestMachineSocketAccumulation(t *testing.T) {
	m := newTestMachine(t)
	// Threads 0 and 1 are socket 0, thread 4 is socket 1.
	_ = m.SetRates(0, EventRates{"CAS_COUNT_RD": 100})
	_ = m.SetRates(1, EventRates{"CAS_COUNT_RD": 50})
	_ = m.SetRates(4, EventRates{"CAS_COUNT_RD": 10})
	_ = m.Advance(2)
	v, err := m.ReadSocketCounter(0, "CAS_COUNT_RD")
	if err != nil {
		t.Fatal(err)
	}
	if v != 300 {
		t.Fatalf("socket0 %d", v)
	}
	v, _ = m.ReadSocketCounter(1, "CAS_COUNT_RD")
	if v != 20 {
		t.Fatalf("socket1 %d", v)
	}
}

func TestMachineFractionalCarry(t *testing.T) {
	m := newTestMachine(t)
	_ = m.SetRates(0, EventRates{"INSTR_RETIRED_ANY": 0.5})
	for i := 0; i < 10; i++ {
		_ = m.Advance(1) // 0.5 events per step
	}
	v, _ := m.ReadThreadCounter(0, "INSTR_RETIRED_ANY")
	if v != 5 {
		t.Fatalf("fractional carry lost events: %d", v)
	}
}

func TestMachineErrors(t *testing.T) {
	m := newTestMachine(t)
	if err := m.SetRates(99, nil); err == nil {
		t.Error("bad thread accepted")
	}
	if err := m.SetRates(0, EventRates{"FAKE": 1}); err == nil {
		t.Error("bad event accepted")
	}
	if err := m.SetRates(0, EventRates{"INSTR_RETIRED_ANY": -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := m.Advance(-1); err == nil {
		t.Error("negative dt accepted")
	}
	if _, err := m.ReadThreadCounter(0, "CAS_COUNT_RD"); err == nil {
		t.Error("socket event via thread read accepted")
	}
	if _, err := m.ReadSocketCounter(0, "INSTR_RETIRED_ANY"); err == nil {
		t.Error("thread event via socket read accepted")
	}
	if _, err := m.ReadThreadCounter(-1, "INSTR_RETIRED_ANY"); err == nil {
		t.Error("bad thread read accepted")
	}
	if _, err := m.ReadSocketCounter(9, "CAS_COUNT_RD"); err == nil {
		t.Error("bad socket read accepted")
	}
	if _, err := NewMachine(Topology{}); err == nil {
		t.Error("bad topology accepted")
	}
}

func TestMachineIdle(t *testing.T) {
	m := newTestMachine(t)
	_ = m.SetRates(0, EventRates{"INSTR_RETIRED_ANY": 100})
	_ = m.Advance(1)
	_ = m.Idle(0)
	_ = m.Advance(1)
	v, _ := m.ReadThreadCounter(0, "INSTR_RETIRED_ANY")
	if v != 100 {
		t.Fatalf("idle thread kept counting: %d", v)
	}
}

func TestSessionFLOPSDP(t *testing.T) {
	m := newTestMachine(t)
	// Thread 0: 1 GHz core clock, 2 GFLOP/s via AVX (0.5e9 AVX instr/s).
	_ = m.SetRates(0, EventRates{
		"INSTR_RETIRED_ANY":                        1e9,
		"CPU_CLK_UNHALTED_CORE":                    2e9,
		"CPU_CLK_UNHALTED_REF":                     2e9,
		"FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE": 0.5e9,
	})
	sess, err := NewSession(m, group(t, "FLOPS_DP"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	_ = m.Advance(10)
	if err := sess.Stop(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 10 {
		t.Fatalf("duration %v", res.Duration)
	}
	mflops := res.Metrics[0]["DP MFLOP/s"]
	if math.Abs(mflops-2000) > 1 {
		t.Fatalf("DP MFLOP/s = %v, want ~2000", mflops)
	}
	cpi := res.Metrics[0]["CPI"]
	if math.Abs(cpi-2) > 1e-9 {
		t.Fatalf("CPI %v", cpi)
	}
	clock := res.Metrics[0]["Clock [MHz]"]
	if math.Abs(clock-2000) > 1e-6 {
		t.Fatalf("Clock %v", clock)
	}
}

func TestSessionMemBandwidthSocketAttribution(t *testing.T) {
	m := newTestMachine(t)
	// Two threads on socket 0 each stream 1 GB/s read (64-byte lines).
	lineRate := 1e9 / 64
	for _, tid := range []int{0, 1} {
		_ = m.SetRates(tid, EventRates{
			"INSTR_RETIRED_ANY":     1e9,
			"CPU_CLK_UNHALTED_CORE": 2e9,
			"CPU_CLK_UNHALTED_REF":  2e9,
			"CAS_COUNT_RD":          lineRate,
		})
	}
	sess, _ := NewSession(m, group(t, "MEM"), []int{0, 1})
	_ = sess.Start()
	_ = m.Advance(5)
	_ = sess.Stop()
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Socket counter attributed to first thread only.
	if res.Raw[1]["MBOX0C0"] != 0 {
		t.Fatalf("socket counter attributed twice: %d", res.Raw[1]["MBOX0C0"])
	}
	bw0 := res.Metrics[0]["Memory read bandwidth [MBytes/s]"]
	if math.Abs(bw0-2000) > 1 { // both threads' traffic: 2 GB/s = 2000 MB/s
		t.Fatalf("bw %v, want ~2000", bw0)
	}
	// Node-level sum counts the socket once.
	if sum := res.Sum("Memory read bandwidth [MBytes/s]"); math.Abs(sum-2000) > 1 {
		t.Fatalf("sum %v", sum)
	}
}

func TestSessionCounterOverflow(t *testing.T) {
	m := newTestMachine(t)
	// Park the counter 1000 events before the 48-bit wrap.
	m.poke(0, "INSTR_RETIRED_ANY", CounterMask-999)
	_ = m.SetRates(0, EventRates{
		"INSTR_RETIRED_ANY":     1e6,
		"CPU_CLK_UNHALTED_CORE": 1e6,
		"CPU_CLK_UNHALTED_REF":  1e6,
	})
	sess, _ := NewSession(m, group(t, "CLOCK"), []int{0})
	_ = sess.Start()
	_ = m.Advance(1) // 1e6 events, wrapping the register
	_ = sess.Stop()
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Raw[0]["FIXC0"]; got != 1e6 {
		t.Fatalf("overflow delta %d, want 1000000", got)
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	m := newTestMachine(t)
	sess, _ := NewSession(m, group(t, "CLOCK"), nil)
	if _, err := sess.Result(); err == nil {
		t.Error("result before start accepted")
	}
	if err := sess.Stop(); err == nil {
		t.Error("stop before start accepted")
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err == nil {
		t.Error("double start accepted")
	}
	if _, err := sess.Result(); err == nil {
		t.Error("result while running accepted")
	}
	if err := sess.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Result(); err != nil {
		t.Error(err)
	}
}

func TestSessionValidation(t *testing.T) {
	m := newTestMachine(t)
	if _, err := NewSession(m, group(t, "CLOCK"), []int{99}); err == nil {
		t.Error("bad thread accepted")
	}
	if _, err := NewSession(m, group(t, "CLOCK"), []int{1, 1}); err == nil {
		t.Error("duplicate thread accepted")
	}
	sess, err := NewSession(m, group(t, "CLOCK"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sess.threads); got != m.Topology().NumHWThreads() {
		t.Fatalf("default threads %d", got)
	}
}

func TestSessionRestart(t *testing.T) {
	m := newTestMachine(t)
	_ = m.SetRates(0, EventRates{
		"INSTR_RETIRED_ANY":     1e6,
		"CPU_CLK_UNHALTED_CORE": 1e6,
		"CPU_CLK_UNHALTED_REF":  1e6,
	})
	sess, _ := NewSession(m, group(t, "CLOCK"), []int{0})
	for i := 0; i < 3; i++ {
		if err := sess.Start(); err != nil {
			t.Fatal(err)
		}
		_ = m.Advance(2)
		if err := sess.Stop(); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Raw[0]["FIXC0"]; got != 2e6 {
			t.Fatalf("iteration %d: delta %d", i, got)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	m := newTestMachine(t)
	for tid, ipc := range map[int]float64{0: 2, 1: 1, 2: 0.5} {
		_ = m.SetRates(tid, EventRates{
			"INSTR_RETIRED_ANY":     ipc * 1e9,
			"CPU_CLK_UNHALTED_CORE": 1e9,
			"CPU_CLK_UNHALTED_REF":  1e9,
		})
	}
	sess, _ := NewSession(m, group(t, "CLOCK"), []int{0, 1, 2})
	_ = sess.Start()
	_ = m.Advance(1)
	_ = sess.Stop()
	res, _ := sess.Result()
	if got := res.Max("IPC"); math.Abs(got-2) > 1e-9 {
		t.Fatalf("max %v", got)
	}
	if got := res.Min("IPC"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("min %v", got)
	}
	if got := res.Mean("IPC"); math.Abs(got-(3.5/3)) > 1e-9 {
		t.Fatalf("mean %v", got)
	}
	if len(res.MetricNames()) == 0 {
		t.Fatal("metric names empty")
	}
}

// Property: derived metrics are finite and non-negative for non-negative
// counter rates across all built-in groups.
func TestMetricsNonNegativeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	groups := Builtin().Names()
	f := func(seed int64) bool {
		_ = seed
		m, _ := NewMachine(testTopo())
		rates := EventRates{}
		for ev := range eventCatalog {
			if r.Intn(2) == 0 {
				rates[ev] = math.Abs(r.NormFloat64()) * 1e9
			}
		}
		_ = m.SetRates(0, rates)
		g := groups[r.Intn(len(groups))]
		sess, err := NewSession(m, group(t, g), []int{0})
		if err != nil {
			return false
		}
		_ = sess.Start()
		_ = m.Advance(r.Float64()*10 + 0.1)
		_ = sess.Stop()
		res, err := sess.Result()
		if err != nil {
			t.Logf("%s: %v", g, err)
			return false
		}
		for name, v := range res.Metrics[0] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Logf("%s metric %q = %v with rates %v", g, name, v, rates)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: measured FLOP rate matches the configured rate for arbitrary
// mixes of scalar/SSE/AVX instructions.
func TestFlopsRateProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		_ = seed
		m, _ := NewMachine(testTopo())
		scalar := r.Float64() * 1e9
		sse := r.Float64() * 1e9
		avx := r.Float64() * 1e9
		_ = m.SetRates(0, EventRates{
			"INSTR_RETIRED_ANY":                        1e9,
			"CPU_CLK_UNHALTED_CORE":                    2e9,
			"CPU_CLK_UNHALTED_REF":                     2e9,
			"FP_ARITH_INST_RETIRED_SCALAR_DOUBLE":      scalar,
			"FP_ARITH_INST_RETIRED_128B_PACKED_DOUBLE": sse,
			"FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE": avx,
		})
		sess, _ := NewSession(m, group(t, "FLOPS_DP"), []int{0})
		_ = sess.Start()
		dur := r.Float64()*5 + 0.5
		_ = m.Advance(dur)
		_ = sess.Stop()
		res, err := sess.Result()
		if err != nil {
			return false
		}
		want := 1e-6 * (scalar + 2*sse + 4*avx)
		got := res.Metrics[0]["DP MFLOP/s"]
		return math.Abs(got-want)/math.Max(want, 1) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
