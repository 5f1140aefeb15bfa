package proc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newState(t *testing.T) *State {
	t.Helper()
	s, err := NewState("node01", 4, 64*1024*1024) // 64 GB
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState("h", 0, 1024); err == nil {
		t.Error("zero cpus accepted")
	}
	if _, err := NewState("h", 4, 0); err == nil {
		t.Error("zero memory accepted")
	}
	s := newState(t)
	if s.hostname != "node01" || s.ncpu != 4 {
		t.Error("accessors")
	}
	if s.memTotal != 64*1024*1024 {
		t.Error("mem total")
	}
}

func TestCPUAccounting(t *testing.T) {
	s := newState(t)
	// CPU 0 fully busy in user, CPU 1 half user / quarter system, rest idle.
	if err := s.SetCPULoad(0, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCPULoad(1, 0.5, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(10); err != nil {
		t.Fatal(err)
	}
	cpus := s.cpus
	if cpus[0].User != 10*UserHZ {
		t.Errorf("cpu0 user %d", cpus[0].User)
	}
	if cpus[0].Idle != 0 {
		t.Errorf("cpu0 idle %d", cpus[0].Idle)
	}
	if cpus[1].User != 5*UserHZ || cpus[1].System != 250 {
		t.Errorf("cpu1 %+v", cpus[1])
	}
	if cpus[2].Idle != 10*UserHZ {
		t.Errorf("cpu2 idle %d", cpus[2].Idle)
	}
}

func TestCPULoadClamping(t *testing.T) {
	s := newState(t)
	if err := s.SetCPULoad(0, 2.0, 0.5); err != nil {
		t.Fatal(err)
	}
	_ = s.Tick(1)
	cpus := s.cpus
	if cpus[0].User != UserHZ || cpus[0].System != 0 {
		t.Fatalf("clamping %+v", cpus[0])
	}
	if err := s.SetCPULoad(9, 1, 0); err == nil {
		t.Fatal("bad cpu accepted")
	}
	if err := s.Tick(-1); err == nil {
		t.Fatal("negative tick accepted")
	}
}

func TestLoadAverageConvergence(t *testing.T) {
	s := newState(t)
	s.SetRunnable(4)
	// After 5 time constants the 1-minute average reaches ~99% of target.
	for i := 0; i < 300; i++ {
		_ = s.Tick(1)
	}
	v, err := ParseLoadAvg(s.LoadAvg())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Load1-4) > 0.1 {
		t.Errorf("load1 %v", v.Load1)
	}
	if v.Load5 < 1 || v.Load5 > 4 {
		t.Errorf("load5 %v", v.Load5)
	}
	if v.Load15 >= v.Load5 {
		t.Errorf("load15 %v >= load5 %v", v.Load15, v.Load5)
	}
	if v.Runnable != 4 {
		t.Errorf("runnable %d", v.Runnable)
	}
	// Negative runnable clamps.
	s.SetRunnable(-3)
	_ = s.Tick(1)
	v, _ = ParseLoadAvg(s.LoadAvg())
	if v.Runnable != 0 {
		t.Errorf("negative runnable: %d", v.Runnable)
	}
}

func TestStatRoundTrip(t *testing.T) {
	s := newState(t)
	_ = s.SetCPULoad(0, 0.8, 0.1)
	_ = s.SetCPULoad(3, 0.2, 0)
	_ = s.Tick(60)
	parsed, err := ParseStat(s.Stat())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.CPUs) != 4 {
		t.Fatalf("cpus %d", len(parsed.CPUs))
	}
	cpus := s.cpus
	for i := range cpus {
		if parsed.CPUs[i] != cpus[i] {
			t.Errorf("cpu%d: parsed %+v raw %+v", i, parsed.CPUs[i], cpus[i])
		}
	}
	var wantAgg CPUTimes
	for _, c := range cpus {
		wantAgg.User += c.User
		wantAgg.System += c.System
		wantAgg.Idle += c.Idle
	}
	if parsed.Aggregate.User != wantAgg.User || parsed.Aggregate.Idle != wantAgg.Idle {
		t.Errorf("aggregate %+v want %+v", parsed.Aggregate, wantAgg)
	}
}

func TestMeminfoRoundTrip(t *testing.T) {
	s := newState(t)
	s.SetMemUsed(10 * 1024 * 1024) // 10 GB
	m, err := ParseMeminfo(s.Meminfo())
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalKB != 64*1024*1024 {
		t.Errorf("total %d", m.TotalKB)
	}
	if m.UsedKB() != 10*1024*1024 {
		t.Errorf("used %d", m.UsedKB())
	}
	// Used beyond total clamps to total.
	s.SetMemUsed(1 << 60)
	m, _ = ParseMeminfo(s.Meminfo())
	if m.UsedKB() != 64*1024*1024 {
		t.Errorf("clamped used %d", m.UsedKB())
	}
}

func TestNetDevRoundTrip(t *testing.T) {
	s := newState(t)
	s.SetNetRates(1e6, 5e5) // 1 MB/s rx, 0.5 MB/s tx
	_ = s.Tick(10)
	ifaces, err := ParseNetDev(s.NetDev())
	if err != nil {
		t.Fatal(err)
	}
	eth, ok := ifaces["eth0"]
	if !ok {
		t.Fatalf("ifaces %v", ifaces)
	}
	if eth.RxBytes != 1e7 || eth.TxBytes != 5e6 {
		t.Errorf("eth0 %+v", eth)
	}
	if eth.RxPackets == 0 || eth.TxPackets == 0 {
		t.Errorf("packets %+v", eth)
	}
	if _, ok := ifaces["lo"]; !ok {
		t.Error("lo missing")
	}
}

func TestDiskstatsRoundTrip(t *testing.T) {
	s := newState(t)
	s.SetDiskRates(4096*100, 4096*50) // 100 read IOs/s, 50 write IOs/s
	_ = s.Tick(10)
	devs, err := ParseDiskstats(s.Diskstats())
	if err != nil {
		t.Fatal(err)
	}
	sda, ok := devs["sda"]
	if !ok {
		t.Fatalf("devs %v", devs)
	}
	if sda.ReadIOs != 1000 || sda.WriteIOs != 500 {
		t.Errorf("ios %+v", sda)
	}
	if sda.ReadSectors != 4096*100*10/512 {
		t.Errorf("sectors %+v", sda)
	}
}

func TestNegativeRatesClamp(t *testing.T) {
	s := newState(t)
	s.SetNetRates(-5, -5)
	s.SetDiskRates(-5, -5)
	_ = s.Tick(10)
	net, disk := s.net, s.disk
	if net.RxBytes != 0 || disk.WriteSectors != 0 {
		t.Fatalf("negative rates counted: %+v %+v", net, disk)
	}
}

func TestParseLoadAvgErrors(t *testing.T) {
	bad := []string{"", "1.0 2.0", "a b c 1/2 3", "1 2 3 nodash 5", "1 2 x 1/2 3", "1 x 3 1/2 3", "1 2 3 x/2 3", "1 2 3 1/x 3"}
	for _, s := range bad {
		if _, err := ParseLoadAvg(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestParseStatErrors(t *testing.T) {
	if _, err := ParseStat("intr 5"); err == nil {
		t.Error("missing cpu line accepted")
	}
	if _, err := ParseStat("cpu 1 2 3"); err == nil {
		t.Error("short cpu line accepted")
	}
	if _, err := ParseStat("cpu a b c d e f g"); err == nil {
		t.Error("garbage cpu line accepted")
	}
}

func TestParseMeminfoErrors(t *testing.T) {
	if _, err := ParseMeminfo(""); err == nil {
		t.Error("empty meminfo accepted")
	}
	if _, err := ParseMeminfo("SomethingElse: 5 kB"); err == nil {
		t.Error("irrelevant meminfo accepted")
	}
	// Unparsable numbers in known fields are skipped, leading to an error.
	if _, err := ParseMeminfo("MemTotal: abc kB\nMemFree: def kB"); err == nil {
		t.Error("garbage meminfo accepted")
	}
}

func TestParseNetDevErrors(t *testing.T) {
	if _, err := ParseNetDev("header only\n"); err == nil {
		t.Error("no interfaces accepted")
	}
	if _, err := ParseNetDev("eth0: 1 2 3\n"); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ParseNetDev("eth0: a 2 0 0 0 0 0 0 9 10 0 0 0 0 0 0\n"); err == nil {
		t.Error("garbage rx accepted")
	}
}

func TestParseDiskstatsErrors(t *testing.T) {
	if _, err := ParseDiskstats("\n\n"); err == nil {
		t.Error("empty diskstats accepted")
	}
	if _, err := ParseDiskstats("8 0 sda a 0 1 0 1 0 1 0\n"); err == nil {
		t.Error("garbage diskstats accepted")
	}
}

func TestParseRealWorldFormats(t *testing.T) {
	// Excerpts in real-kernel shapes (extra fields, multiple devices).
	load := "0.01 0.04 0.05 2/345 6789\n"
	if v, err := ParseLoadAvg(load); err != nil || v.Total != 345 {
		t.Errorf("%+v %v", v, err)
	}
	stat := "cpu  4705 150 1120 16250 520 30 45 0 0 0\ncpu0 4705 150 1120 16250 520 30 45 0 0 0\nintr 114930548\nctxt 1990473\n"
	if v, err := ParseStat(stat); err != nil || v.Aggregate.User != 4705 || len(v.CPUs) != 1 {
		t.Errorf("%+v %v", v, err)
	}
	netdev := `Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo: 1839064    8032    0    0    0     0          0         0  1839064    8032    0    0    0     0       0          0
  ib0: 90123456789 1234567    0    0    0     0          0         0 80123456789 7654321    0    0    0     0       0          0
`
	ifaces, err := ParseNetDev(netdev)
	if err != nil || ifaces["ib0"].RxBytes != 90123456789 {
		t.Errorf("%+v %v", ifaces, err)
	}
	disks := "   8       0 sda 168040 12924 6579954 1052456 72960 888313 14736174 4406280 0 559892 5459184\n   8       1 sda1 102 0 816 89 0 0 0 0 0 89 89\n"
	devs, err := ParseDiskstats(disks)
	if err != nil || devs["sda"].ReadSectors != 6579954 || len(devs) != 2 {
		t.Errorf("%+v %v", devs, err)
	}
}

// Property: for any load fractions and tick lengths, jiffies per CPU add up
// to elapsed time within rounding.
func TestJiffyConservationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		_ = seed
		s, _ := NewState("p", 2, 1024*1024)
		total := 0.0
		for i := 0; i < 20; i++ {
			_ = s.SetCPULoad(0, r.Float64(), r.Float64()/2)
			_ = s.SetCPULoad(1, r.Float64(), 0)
			dt := r.Float64() * 5
			_ = s.Tick(dt)
			total += dt
		}
		cpus := s.cpus
		wantJiffies := total * UserHZ
		// Each of the three jiffy classes (user/system/idle) carries a
		// fractional remainder below one jiffy, so the total may trail the
		// elapsed time by up to 3 jiffies.
		for _, c := range cpus {
			diff := wantJiffies - float64(c.Total())
			if diff < -1e-6 || diff > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatRenderStable(t *testing.T) {
	s := newState(t)
	_ = s.Tick(1)
	out := s.Stat()
	if !strings.HasPrefix(out, "cpu ") {
		t.Fatalf("stat output %q", out)
	}
	if !strings.Contains(out, "cpu3 ") {
		t.Fatal("missing per-cpu line")
	}
}
