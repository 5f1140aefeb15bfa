package collector

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/hpm"
	"repro/internal/lineproto"
	"repro/internal/proc"
	"repro/internal/workload"
)

func ts(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

// group resolves a built-in performance group.
func group(t *testing.T, name string) *hpm.Group {
	t.Helper()
	g, err := hpm.Builtin().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type memSink struct {
	mu       sync.Mutex
	payloads [][]byte
	fail     bool
}

func (s *memSink) send(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("down")
	}
	s.payloads = append(s.payloads, append([]byte(nil), p...))
	return nil
}

func (s *memSink) points(t *testing.T) []lineproto.Point {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []lineproto.Point
	for _, p := range s.payloads {
		pts, err := lineproto.Parse(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pts...)
	}
	return out
}

type stubPlugin struct {
	name string
	pts  []lineproto.Point
	err  error
}

func (p *stubPlugin) Name() string { return p.name }
func (p *stubPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	return p.pts, p.err
}

func newAgent(t *testing.T, sink *memSink) *Agent {
	t.Helper()
	a, err := New(Config{Hostname: "node01", Sink: sink.send, ExtraTags: map[string]string{"cluster": "emmy"}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAgentValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Hostname: "h"}); err == nil {
		t.Error("missing endpoint accepted")
	}
}

func TestAgentTagsAndPush(t *testing.T) {
	sink := &memSink{}
	a := newAgent(t, sink)
	_ = a.Register(&stubPlugin{name: "p1", pts: []lineproto.Point{
		lineproto.NewPoint("m", nil, map[string]lineproto.Value{"v": lineproto.Float(1)}, time.Time{}),
	}})
	if err := a.CollectAndPush(ts(100)); err != nil {
		t.Fatal(err)
	}
	pts := sink.points(t)
	if len(pts) != 1 {
		t.Fatalf("points %d", len(pts))
	}
	p := pts[0]
	if p.Tag("hostname") != "node01" || p.Tag("cluster") != "emmy" {
		t.Fatalf("tags %v", p.Tags)
	}
	if !p.Time.Equal(ts(100)) {
		t.Fatalf("time %v", p.Time)
	}
	collected, fails := a.Stats()
	if collected != 1 || fails != 0 {
		t.Fatalf("stats %d %d", collected, fails)
	}
}

func TestAgentPluginTagsWin(t *testing.T) {
	sink := &memSink{}
	a := newAgent(t, sink)
	_ = a.Register(&stubPlugin{name: "p1", pts: []lineproto.Point{
		lineproto.NewPoint(
			"m",
			map[string]string{"hostname": "other"},
			map[string]lineproto.Value{"v": lineproto.Float(1)},
			ts(50),
		),
	}})
	_ = a.CollectAndPush(ts(100))
	p := sink.points(t)[0]
	if p.Tag("hostname") != "other" || !p.Time.Equal(ts(50)) {
		t.Fatalf("plugin values overridden: %+v", p)
	}
}

func TestAgentPluginErrorSkipsOnlyThatPlugin(t *testing.T) {
	sink := &memSink{}
	var gotPlugin string
	a, _ := New(Config{
		Hostname: "h", Sink: sink.send,
		OnError: func(plugin string, err error) { gotPlugin = plugin },
	})
	_ = a.Register(&stubPlugin{name: "bad", err: errors.New("boom")})
	_ = a.Register(&stubPlugin{name: "good", pts: []lineproto.Point{
		lineproto.NewPoint("m", nil, map[string]lineproto.Value{"v": lineproto.Float(1)}, time.Time{}),
	}})
	if err := a.CollectAndPush(ts(1)); err != nil {
		t.Fatal(err)
	}
	if len(sink.points(t)) != 1 {
		t.Fatal("good plugin data lost")
	}
	if gotPlugin != "bad" {
		t.Fatalf("OnError plugin %q", gotPlugin)
	}
}

func TestAgentDuplicatePlugin(t *testing.T) {
	a := newAgent(t, &memSink{})
	_ = a.Register(&stubPlugin{name: "p"})
	if err := a.Register(&stubPlugin{name: "p"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if got := a.Plugins(); len(got) != 1 || got[0] != "p" {
		t.Fatalf("plugins %v", got)
	}
}

func TestAgentPushFailure(t *testing.T) {
	sink := &memSink{fail: true}
	a := newAgent(t, sink)
	_ = a.Register(&stubPlugin{name: "p1", pts: []lineproto.Point{
		lineproto.NewPoint("m", nil, map[string]lineproto.Value{"v": lineproto.Float(1)}, time.Time{}),
	}})
	if err := a.CollectAndPush(ts(1)); err == nil {
		t.Fatal("expected push error")
	}
	_, fails := a.Stats()
	if fails != 1 {
		t.Fatalf("fails %d", fails)
	}
	// Empty batch is a no-op.
	if err := a.Push(nil); err != nil {
		t.Fatal(err)
	}
}

func TestAgentRunLoop(t *testing.T) {
	sink := &memSink{}
	a, _ := New(Config{Hostname: "h", Sink: sink.send, Interval: 10 * time.Millisecond})
	_ = a.Register(&stubPlugin{name: "p1", pts: []lineproto.Point{
		lineproto.NewPoint("m", nil, map[string]lineproto.Value{"v": lineproto.Float(1)}, time.Time{}),
	}})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { a.Run(stop); close(done) }()
	deadline := time.After(5 * time.Second)
	for len(sink.points(t)) < 2 {
		select {
		case <-deadline:
			t.Fatal("run loop produced no data")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	<-done
}

func newProcState(t *testing.T) *proc.State {
	t.Helper()
	st, err := proc.NewState("node01", 4, 16*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLoadPlugin(t *testing.T) {
	st := newProcState(t)
	st.SetRunnable(3)
	for i := 0; i < 120; i++ {
		_ = st.Tick(1)
	}
	p := &LoadPlugin{FS: st}
	pts, err := p.Collect(ts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Measurement != "load" {
		t.Fatalf("%+v", pts)
	}
	if fieldOf(pts[0], "load1").FloatVal() < 2 {
		t.Fatalf("load1 %v", fieldOf(pts[0], "load1"))
	}
	if fieldOf(pts[0], "runnable").IntVal() != 3 {
		t.Fatalf("runnable %+v", pts[0].Fields)
	}
}

func TestCPUPluginRates(t *testing.T) {
	st := newProcState(t)
	_ = st.SetCPULoad(0, 1.0, 0)
	_ = st.SetCPULoad(1, 0.5, 0)
	p := &CPUPlugin{FS: st, PerCore: true}
	// First collect primes the snapshot.
	pts, err := p.Collect(ts(0))
	if err != nil || pts != nil {
		t.Fatalf("first collect: %v %v", pts, err)
	}
	_ = st.Tick(10)
	pts, err = p.Collect(ts(10))
	if err != nil {
		t.Fatal(err)
	}
	// 1 aggregate + 4 per-core points.
	if len(pts) != 5 {
		t.Fatalf("points %d", len(pts))
	}
	agg := pts[0]
	// Two of four cores at 1.0 and 0.5 => aggregate 37.5% busy.
	if got := fieldOf(agg, "percent").FloatVal(); math.Abs(got-37.5) > 0.5 {
		t.Fatalf("aggregate percent %v", got)
	}
	var core0 lineproto.Point
	for _, pt := range pts[1:] {
		if pt.Tag("core") == "0" {
			core0 = pt
		}
	}
	if got := fieldOf(core0, "user").FloatVal(); math.Abs(got-100) > 0.5 {
		t.Fatalf("core0 user %v", got)
	}
}

func TestMemoryPlugin(t *testing.T) {
	st := newProcState(t)
	st.SetMemUsed(4 * 1024 * 1024)
	p := &MemoryPlugin{FS: st}
	pts, err := p.Collect(ts(1))
	if err != nil {
		t.Fatal(err)
	}
	if fieldOf(pts[0], "used_kb").IntVal() != 4*1024*1024 {
		t.Fatalf("used %+v", pts[0].Fields)
	}
	if got := fieldOf(pts[0], "used_percent").FloatVal(); math.Abs(got-25) > 0.1 {
		t.Fatalf("percent %v", got)
	}
}

func TestNetworkPluginRates(t *testing.T) {
	st := newProcState(t)
	st.SetNetRates(2e6, 1e6)
	p := &NetworkPlugin{FS: st}
	_, _ = p.Collect(ts(0))
	_ = st.Tick(10)
	pts, err := p.Collect(ts(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 { // lo excluded by default
		t.Fatalf("points %+v", pts)
	}
	if pts[0].Tag("interface") != "eth0" {
		t.Fatalf("iface %v", pts[0].Tags)
	}
	if got := fieldOf(pts[0], "rx_bytes_per_s").FloatVal(); math.Abs(got-2e6) > 1e3 {
		t.Fatalf("rx rate %v", got)
	}
	// Interface filter.
	p2 := &NetworkPlugin{FS: st, Interfaces: []string{"lo"}}
	_, _ = p2.Collect(ts(10))
	_ = st.Tick(1)
	pts, _ = p2.Collect(ts(11))
	if len(pts) != 1 || pts[0].Tag("interface") != "lo" {
		t.Fatalf("filtered %+v", pts)
	}
}

func TestDiskPluginRates(t *testing.T) {
	st := newProcState(t)
	st.SetDiskRates(1e6, 5e5)
	p := &DiskPlugin{FS: st}
	_, _ = p.Collect(ts(0))
	_ = st.Tick(10)
	pts, err := p.Collect(ts(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Tag("device") != "sda" {
		t.Fatalf("%+v", pts)
	}
	if got := fieldOf(pts[0], "read_bytes_per_s").FloatVal(); math.Abs(got-1e6) > 1e3 {
		t.Fatalf("read rate %v", got)
	}
	if got := fieldOf(pts[0], "write_bytes_per_s").FloatVal(); math.Abs(got-5e5) > 1e3 {
		t.Fatalf("write rate %v", got)
	}
}

func TestHPMPluginTimeline(t *testing.T) {
	topo := hpm.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1, BaseClockMHz: 2200}
	m, err := hpm.NewMachine(topo)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewTriad(4, 1000)
	for core := 0; core < 4; core++ {
		_ = m.SetRates(core, w.ProfileAt(1, core).Rates(2200))
	}
	p := &HPMPlugin{Machine: m, Group: group(t, "MEM_DP"), PerThread: true}
	// First cycle arms.
	pts, err := p.Collect(ts(0))
	if err != nil || pts != nil {
		t.Fatalf("arming cycle: %v %v", pts, err)
	}
	_ = m.Advance(10)
	pts, err = p.Collect(ts(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 { // 1 node + 4 threads
		t.Fatalf("points %d", len(pts))
	}
	node := pts[0]
	if node.Measurement != "likwid_mem_dp" {
		t.Fatalf("measurement %q", node.Measurement)
	}
	bw := fieldOf(node, "memory_bandwidth_mbytes_s").FloatVal()
	wantBW := 4 * 6e9 / 1e6 // 4 cores x 6 GB/s in MB/s
	if math.Abs(bw-wantBW)/wantBW > 0.02 {
		t.Fatalf("bandwidth %v want ~%v", bw, wantBW)
	}
	flops := fieldOf(node, "dp_mflop_s").FloatVal()
	wantFlops := 4 * (6e9 / 24 * 2) / 1e6
	if math.Abs(flops-wantFlops)/wantFlops > 0.02 {
		t.Fatalf("flops %v want ~%v", flops, wantFlops)
	}
	// CPI is intensive: node value close to the per-thread value, not 4x.
	cpi := fieldOf(node, "cpi").FloatVal()
	thread := pts[1]
	tcpi := fieldOf(thread, "cpi").FloatVal()
	if math.Abs(cpi-tcpi) > 0.2*tcpi {
		t.Fatalf("cpi aggregation: node %v thread %v", cpi, tcpi)
	}
	// Continuous timeline: next window works without re-arming.
	_ = m.Advance(10)
	pts, err = p.Collect(ts(20))
	if err != nil || len(pts) != 5 {
		t.Fatalf("second window: %d %v", len(pts), err)
	}
}

func TestHPMPluginBadGroup(t *testing.T) {
	m, _ := hpm.NewMachine(hpm.DefaultTopology())
	// A group the session cannot arm fails the cycle; an unknown group
	// name never gets this far (lms-collector fails at start).
	p := &HPMPlugin{Machine: m, Group: group(t, "CLOCK"), Threads: []int{99}}
	if _, err := p.Collect(ts(0)); err == nil {
		t.Fatal("bad group accepted")
	}
}

func TestSanitizeFieldKey(t *testing.T) {
	cases := map[string]string{
		"DP MFLOP/s":                  "dp_mflop_s",
		"Memory bandwidth [MBytes/s]": "memory_bandwidth_mbytes_s",
		"Runtime (RDTSC) [s]":         "runtime_rdtsc_s",
		"CPI":                         "cpi",
		"L1 DTLB load miss rate":      "l1_dtlb_load_miss_rate",
		"Clock [MHz]":                 "clock_mhz",
		"  weird   spacing  ":         "weird_spacing",
	}
	for in, want := range cases {
		if got := SanitizeFieldKey(in); got != want {
			t.Errorf("%q -> %q, want %q", in, got, want)
		}
	}
}

func TestSumMetricClassification(t *testing.T) {
	sums := []string{"DP MFLOP/s", "Memory bandwidth [MBytes/s]", "Memory data volume [GBytes]", "Energy [J]", "MIPS", "Packed MUOPS/s", "L1 DTLB load misses"}
	means := []string{"CPI", "IPC", "Clock [MHz]", "Branch rate", "Load to store ratio", "Operational intensity"}
	for _, n := range sums {
		if !SumMetric(n) {
			t.Errorf("%q should sum", n)
		}
	}
	for _, n := range means {
		if SumMetric(n) {
			t.Errorf("%q should average", n)
		}
	}
}

func TestFullNodeAgentCycle(t *testing.T) {
	// A node with proc + hpm, all plugins registered, two collection cycles.
	st := newProcState(t)
	_ = st.SetCPULoad(0, 0.9, 0.05)
	st.SetRunnable(1)
	st.SetMemUsed(1024 * 1024)
	st.SetNetRates(1e6, 1e6)
	st.SetDiskRates(1e5, 1e5)
	topo := hpm.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1, BaseClockMHz: 2200}
	m, _ := hpm.NewMachine(topo)
	_ = m.SetRates(0, workload.NewDGEMM(1, 1000).ProfileAt(1, 0).Rates(2200))

	sink := &memSink{}
	a, _ := New(Config{Hostname: "node01", Sink: sink.send})
	for _, p := range []Plugin{
		&LoadPlugin{FS: st},
		&CPUPlugin{FS: st},
		&MemoryPlugin{FS: st},
		&NetworkPlugin{FS: st},
		&DiskPlugin{FS: st},
		&HPMPlugin{Machine: m, Group: group(t, "FLOPS_DP")},
	} {
		if err := a.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.CollectAndPush(ts(0))
	_ = st.Tick(10)
	_ = m.Advance(10)
	if err := a.CollectAndPush(ts(10)); err != nil {
		t.Fatal(err)
	}
	byMeas := map[string]int{}
	for _, p := range sink.points(t) {
		byMeas[p.Measurement]++
		if p.Tag("hostname") != "node01" {
			t.Fatalf("untagged point %+v", p)
		}
	}
	for _, meas := range []string{"load", "cpu", "memory", "network", "disk", "likwid_flops_dp"} {
		if byMeas[meas] == 0 {
			t.Errorf("measurement %q missing (got %v)", meas, byMeas)
		}
	}
}

func TestCPUPluginCoreCountChange(t *testing.T) {
	// If the per-core snapshot shape changes between cycles, per-core data
	// is skipped rather than mis-attributed.
	st4 := newProcState(t)
	st2, _ := proc.NewState("node01", 2, 1024*1024)
	_ = st4.Tick(1)
	_ = st2.Tick(1)
	p := &CPUPlugin{FS: st4, PerCore: true}
	_, _ = p.Collect(ts(0))
	p.FS = st2
	_ = st2.Tick(1)
	pts, err := p.Collect(ts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Measurement == "cpu_core" {
			t.Fatalf("per-core point with mismatched shape: %+v", pt)
		}
	}
}

func TestPluginNames(t *testing.T) {
	st := newProcState(t)
	m, _ := hpm.NewMachine(hpm.DefaultTopology())
	names := map[Plugin]string{
		&LoadPlugin{FS: st}:    "load",
		&CPUPlugin{FS: st}:     "cpu",
		&MemoryPlugin{FS: st}:  "memory",
		&NetworkPlugin{FS: st}: "network",
		&DiskPlugin{FS: st}:    "disk",
		&HPMPlugin{Machine: m, Group: group(t, "FLOPS_DP")}: "likwid_flops_dp",
	}
	for p, want := range names {
		if p.Name() != want {
			t.Errorf("%T name %q want %q", p, p.Name(), want)
		}
	}
}

func BenchmarkSanitizeFieldKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SanitizeFieldKey("Memory bandwidth [MBytes/s]")
	}
}

// fieldOf returns p's value of the field key, the zero Value when it has none.
func fieldOf(p lineproto.Point, key string) lineproto.Value {
	for _, f := range p.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return lineproto.Value{}
}
