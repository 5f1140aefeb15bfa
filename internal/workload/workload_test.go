package workload

import (
	"math"
	"testing"

	"repro/internal/hpm"
)

func TestProfileRatesBasic(t *testing.T) {
	p := busyProfile(2000, 1.5)
	p.AVXDP = 1e9
	p.MemBytes = 6.4e9
	p.PowerWatts = 20
	r := p.Rates(2200)
	if r["CPU_CLK_UNHALTED_CORE"] != 2e9 {
		t.Errorf("cycles %v", r["CPU_CLK_UNHALTED_CORE"])
	}
	if r["INSTR_RETIRED_ANY"] != 3e9 {
		t.Errorf("instr %v", r["INSTR_RETIRED_ANY"])
	}
	if r["CPU_CLK_UNHALTED_REF"] != 2.2e9 {
		t.Errorf("ref %v", r["CPU_CLK_UNHALTED_REF"])
	}
	// 6.4 GB/s => 100M lines/s, split 2:1.
	rd, wr := r["CAS_COUNT_RD"], r["CAS_COUNT_WR"]
	if math.Abs(rd+wr-1e8) > 1 {
		t.Errorf("cas total %v", rd+wr)
	}
	if math.Abs(rd/wr-2) > 0.01 {
		t.Errorf("cas split %v/%v", rd, wr)
	}
	if r["PWR_PKG_ENERGY"] != 20e6 {
		t.Errorf("power %v", r["PWR_PKG_ENERGY"])
	}
	if r["BR_INST_RETIRED_ALL_BRANCHES"] != 3e9*0.08 {
		t.Errorf("branches %v", r["BR_INST_RETIRED_ALL_BRANCHES"])
	}
}

func TestIdleProfileRates(t *testing.T) {
	p := IdleProfile()
	if !p.Idle() {
		t.Fatal("not idle")
	}
	r := p.Rates(2200)
	if len(r) != 1 || r["PWR_PKG_ENERGY"] != idleWatts*1e6 {
		t.Fatalf("idle rates %v", r)
	}
	// Fully zero profile: no events at all.
	if rates := (CPUProfile{}).Rates(2200); rates != nil {
		t.Fatalf("zero profile rates %v", rates)
	}
}

func TestRatesValidAgainstMachine(t *testing.T) {
	// Every event emitted by every model must exist in the hpm catalog.
	m, err := hpm.NewMachine(hpm.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{
		NewTriad(8, 100),
		NewDGEMM(8, 100),
		&LoadImbalance{Cores: 8, RuntimeSecs: 100},
		&MemoryLeak{Cores: 4, RuntimeSecs: 100, StartKB: 1 << 20, LeakKBPerS: 1024},
		NewIdleBreak(8, 100, 30, 60),
		NewMiniMD(8, 131072, 1000),
	}
	for _, w := range models {
		for _, tt := range []float64{0, 25, 45, 99} {
			for core := 0; core < 8; core++ {
				p := w.ProfileAt(tt, core)
				if err := m.SetRates(core, p.Rates(2200)); err != nil {
					t.Fatalf("%s t=%v core=%d: %v", w.Name(), tt, core, err)
				}
			}
		}
	}
}

func TestValidateModels(t *testing.T) {
	models := []Model{
		NewTriad(4, 60),
		NewDGEMM(4, 60),
		&LoadImbalance{Cores: 4, RuntimeSecs: 60},
		&MemoryLeak{Cores: 4, RuntimeSecs: 60, StartKB: 1 << 20, LeakKBPerS: 100},
		NewIdleBreak(4, 60, 20, 40),
		NewMiniMD(4, 65536, 500),
	}
	for _, m := range models {
		if err := Validate(m, 4); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
	bad := &Triad{Cores: 4, RuntimeSecs: 0}
	if err := Validate(bad, 4); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestTriadShape(t *testing.T) {
	w := NewTriad(4, 100)
	p := w.ProfileAt(50, 0)
	if p.Idle() {
		t.Fatal("active core idle")
	}
	// Bandwidth-bound: operational intensity well below 1 flop/byte.
	flops := p.ScalarDP + 2*p.SSEDP + 4*p.AVXDP
	if oi := flops / p.MemBytes; oi > 0.5 {
		t.Errorf("triad operational intensity %v too high", oi)
	}
	// Cores beyond the active set and times outside the run are idle.
	if !w.ProfileAt(50, 7).Idle() {
		t.Error("inactive core busy")
	}
	if !w.ProfileAt(101, 0).Idle() {
		t.Error("busy after end")
	}
	if w.MemUsedKB(50) == 0 || w.MemUsedKB(101) != 0 {
		t.Error("memory model")
	}
}

func TestDGEMMShape(t *testing.T) {
	w := NewDGEMM(4, 100)
	p := w.ProfileAt(50, 0)
	flops := p.ScalarDP + 2*p.SSEDP + 4*p.AVXDP
	if flops < 1e10 {
		t.Errorf("dgemm flops %v too low", flops)
	}
	if oi := flops / p.MemBytes; oi < 10 {
		t.Errorf("dgemm operational intensity %v too low", oi)
	}
	// DGEMM must out-compute triad by a large factor.
	tr := NewTriad(4, 100).ProfileAt(50, 0)
	trFlops := tr.ScalarDP + 2*tr.SSEDP + 4*tr.AVXDP
	if flops/trFlops < 5 {
		t.Errorf("dgemm/triad flop ratio %v", flops/trFlops)
	}
}

func TestLoadImbalanceShape(t *testing.T) {
	w := &LoadImbalance{Cores: 4, RuntimeSecs: 100}
	p0 := w.ProfileAt(50, 0)
	p1 := w.ProfileAt(50, 1)
	f0 := p0.ScalarDP + 2*p0.SSEDP + 4*p0.AVXDP
	f1 := p1.ScalarDP + 2*p1.SSEDP + 4*p1.AVXDP
	if f0 == 0 || f1 != 0 {
		t.Fatalf("flops %v %v", f0, f1)
	}
	// The spinning cores still burn cycles.
	if p1.Idle() {
		t.Fatal("spinner idle")
	}
	if p1.BranchFrac <= p0.BranchFrac {
		t.Error("spinner should be branch-heavy")
	}
}

func TestMemoryLeakGrowth(t *testing.T) {
	w := &MemoryLeak{Cores: 4, RuntimeSecs: 100, StartKB: 1000, LeakKBPerS: 10}
	if w.MemUsedKB(0) != 1000 {
		t.Error("start")
	}
	if w.MemUsedKB(50) != 1500 {
		t.Errorf("mid %d", w.MemUsedKB(50))
	}
	if w.MemUsedKB(100) <= w.MemUsedKB(50) {
		t.Error("not monotone")
	}
}

func TestIdleBreakWindows(t *testing.T) {
	w := NewIdleBreak(4, 100, 30, 60)
	// Before break: triad profile with real bandwidth.
	if p := w.ProfileAt(10, 0); p.MemBytes == 0 {
		t.Error("pre-break idle")
	}
	// During break: cores 1..3 halted, core 0 nearly idle.
	if p := w.ProfileAt(45, 1); !p.Idle() {
		t.Error("break core busy")
	}
	p0 := w.ProfileAt(45, 0)
	if p0.Idle() {
		t.Error("core 0 should tick along")
	}
	if p0.MemBytes != 0 {
		t.Error("break should have no memory traffic")
	}
	// After break: back to work.
	if p := w.ProfileAt(80, 2); p.MemBytes == 0 {
		t.Error("post-break idle")
	}
}

func TestMiniMDIterations(t *testing.T) {
	w := NewMiniMD(8, 131072, 1000)
	if w.IterationsAt(-1) != 0 || w.IterationsAt(0) != 0 {
		t.Error("start")
	}
	if got := w.IterationsAt(w.Duration()); got != 1000 {
		t.Errorf("end iterations %d", got)
	}
	if got := w.IterationsAt(w.Duration() * 10); got != 1000 {
		t.Errorf("clamp %d", got)
	}
	half := w.IterationsAt(w.Duration() / 2)
	if half < 450 || half > 550 {
		t.Errorf("half %d", half)
	}
}

func TestMiniMDSamples(t *testing.T) {
	w := NewMiniMD(8, 131072, 1000)
	all := w.Samples(0, w.Duration())
	if len(all) != 10 {
		t.Fatalf("samples %d", len(all))
	}
	for i, s := range all {
		if s.Iteration != (i+1)*100 {
			t.Errorf("sample %d iteration %d", i, s.Iteration)
		}
		if s.Runtime100 <= 0 {
			t.Errorf("sample %d runtime %v", i, s.Runtime100)
		}
		if s.Temp < 0.6 || s.Temp > 1.6 {
			t.Errorf("sample %d temp %v out of physical range", i, s.Temp)
		}
		if s.Pressure < 5 || s.Pressure > 7 {
			t.Errorf("sample %d pressure %v", i, s.Pressure)
		}
		if s.Energy > -4 || s.Energy < -5 {
			t.Errorf("sample %d energy %v", i, s.Energy)
		}
	}
	// Windowed emission matches full emission.
	var windowed []Sample
	step := w.Duration() / 7
	for t0 := 0.0; t0 < w.Duration(); t0 += step {
		windowed = append(windowed, w.Samples(t0, math.Min(t0+step, w.Duration()))...)
	}
	if len(windowed) != len(all) {
		t.Fatalf("windowed %d vs full %d", len(windowed), len(all))
	}
	// Empty/backward windows emit nothing.
	if w.Samples(5, 5) != nil || w.Samples(9, 3) != nil {
		t.Error("degenerate windows emitted samples")
	}
}

func TestMiniMDTemperatureEquilibrates(t *testing.T) {
	w := NewMiniMD(8, 131072, 2000)
	early, _, _ := w.StateAt(0)
	late, _, _ := w.StateAt(2000)
	if early < 1.3 || early > 1.6 {
		t.Errorf("initial temp %v, want ~1.44", early)
	}
	if late < 0.65 || late > 0.85 {
		t.Errorf("equilibrated temp %v, want ~0.72", late)
	}
}

func TestMiniMDRebuildSpikes(t *testing.T) {
	w := NewMiniMD(8, 131072, 10000)
	base := w.SecsPer100
	spiked := 0
	for block := 1; block <= 100; block++ {
		if w.Runtime100At(block*100) > base*1.08 {
			spiked++
		}
	}
	if spiked < 10 || spiked > 40 {
		t.Errorf("spiked blocks %d out of 100", spiked)
	}
}

func TestMiniMDProfilePhases(t *testing.T) {
	w := NewMiniMD(8, 131072, 10000)
	// Find a force-phase time and a rebuild-phase time.
	var force, rebuild CPUProfile
	foundF, foundR := false, false
	for it := 0; it < 40 && !(foundF && foundR); it++ {
		tt := (float64(it) + 0.5) / 100 * w.SecsPer100
		p := w.ProfileAt(tt, 0)
		if it%20 >= 18 {
			rebuild, foundR = p, true
		} else if it%20 < 17 {
			force, foundF = p, true
		}
	}
	if !foundF || !foundR {
		t.Fatal("phases not found")
	}
	if rebuild.MemBytes <= force.MemBytes {
		t.Error("rebuild should be more memory intensive")
	}
	fFlops := force.ScalarDP + 2*force.SSEDP
	rFlops := rebuild.ScalarDP + 2*rebuild.SSEDP
	if rFlops >= fFlops {
		t.Error("rebuild should compute less")
	}
}

func TestMiniMDScaling(t *testing.T) {
	small := NewMiniMD(8, 65536, 1000)
	big := NewMiniMD(8, 262144, 1000)
	if big.SecsPer100 <= small.SecsPer100 {
		t.Error("more atoms should be slower")
	}
	wide := NewMiniMD(16, 65536, 1000)
	if wide.SecsPer100 >= small.SecsPer100 {
		t.Error("more cores should be faster")
	}
	if big.MemUsedKB(1) <= small.MemUsedKB(1) {
		t.Error("memory should scale with atoms")
	}
}

func TestJitterBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := jitter(float64(i)*0.37, 0.1)
		if v < 0.9-1e-9 || v > 1.1+1e-9 {
			t.Fatalf("jitter %v out of bounds", v)
		}
	}
	// Deterministic.
	if jitter(1.5, 0.2) != jitter(1.5, 0.2) {
		t.Fatal("jitter not deterministic")
	}
}

func TestEndToEndHPMFlopsMatchModel(t *testing.T) {
	// Drive a machine with the DGEMM model and verify the measured
	// DP MFLOP/s matches the model's configured rate.
	m, _ := hpm.NewMachine(hpm.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1, BaseClockMHz: 2200})
	w := NewDGEMM(4, 100)
	for core := 0; core < 4; core++ {
		if err := m.SetRates(core, w.ProfileAt(1, core).Rates(2200)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := hpm.Builtin().Lookup("FLOPS_DP")
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := hpm.NewSession(m, g, []int{0, 1, 2, 3})
	_ = sess.Start()
	_ = m.Advance(10)
	_ = sess.Stop()
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Sum("DP MFLOP/s")
	want := 4 * w.FlopsPerSec / 1e6
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("measured %v MFLOP/s, model %v", got, want)
	}
}
