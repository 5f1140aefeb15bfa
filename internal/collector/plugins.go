package collector

import (
	"fmt"
	"time"

	"repro/internal/lineproto"
	"repro/internal/proc"
)

// ProcFS abstracts the /proc snapshot source so the plugins run unchanged
// against the simulated proc.State or a real Linux /proc reader.
type ProcFS interface {
	LoadAvg() string
	Stat() string
	Meminfo() string
	NetDev() string
	Diskstats() string
}

// fval shortens field construction.
func fval(v float64) lineproto.Value { return lineproto.Float(v) }

// LoadPlugin emits the 1/5/15-minute load averages (measurement "load").
type LoadPlugin struct {
	FS ProcFS
}

// Name implements Plugin.
func (p *LoadPlugin) Name() string { return "load" }

// Collect implements Plugin.
func (p *LoadPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	v, err := proc.ParseLoadAvg(p.FS.LoadAvg())
	if err != nil {
		return nil, err
	}
	return []lineproto.Point{lineproto.NewPoint(
		"load",
		nil,
		map[string]lineproto.Value{
			"load1":    fval(v.Load1),
			"load5":    fval(v.Load5),
			"load15":   fval(v.Load15),
			"runnable": lineproto.Int(int64(v.Runnable)),
		},
		now,
	)}, nil
}

// CPUPlugin emits CPU utilization percentages derived from consecutive
// /proc/stat snapshots (measurement "cpu": aggregate; "cpu_core": per core
// when PerCore is set).
type CPUPlugin struct {
	FS      ProcFS
	PerCore bool

	prev    proc.StatValues
	hasPrev bool
}

// Name implements Plugin.
func (p *CPUPlugin) Name() string { return "cpu" }

// Collect implements Plugin.
func (p *CPUPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	cur, err := proc.ParseStat(p.FS.Stat())
	if err != nil {
		return nil, err
	}
	defer func() { p.prev = cur; p.hasPrev = true }()
	if !p.hasPrev {
		return nil, nil // need two snapshots for a rate
	}
	pct := func(curT, prevT proc.CPUTimes) (user, system, idle float64, ok bool) {
		dTotal := float64(curT.Total() - prevT.Total())
		if dTotal <= 0 {
			return 0, 0, 0, false
		}
		user = 100 * float64(curT.User-prevT.User) / dTotal
		system = 100 * float64(curT.System-prevT.System) / dTotal
		idle = 100 * float64(curT.Idle-prevT.Idle) / dTotal
		return user, system, idle, true
	}
	var out []lineproto.Point
	if user, system, idle, ok := pct(cur.Aggregate, p.prev.Aggregate); ok {
		out = append(out, lineproto.NewPoint(
			"cpu",
			nil,
			map[string]lineproto.Value{
				"user":    fval(user),
				"system":  fval(system),
				"idle":    fval(idle),
				"percent": fval(100 - idle),
			},
			now,
		))
	}
	if p.PerCore && len(cur.CPUs) == len(p.prev.CPUs) {
		for i := range cur.CPUs {
			if user, system, idle, ok := pct(cur.CPUs[i], p.prev.CPUs[i]); ok {
				out = append(out, lineproto.NewPoint(
					"cpu_core",
					map[string]string{"core": fmt.Sprint(i)},
					map[string]lineproto.Value{
						"user":    fval(user),
						"system":  fval(system),
						"idle":    fval(idle),
						"percent": fval(100 - idle),
					},
					now,
				))
			}
		}
	}
	return out, nil
}

// MemoryPlugin emits allocated/free/total memory in KB (measurement
// "memory"), the "allocated memory size" metric of Sect. V.
type MemoryPlugin struct {
	FS ProcFS
}

// Name implements Plugin.
func (p *MemoryPlugin) Name() string { return "memory" }

// Collect implements Plugin.
func (p *MemoryPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	m, err := proc.ParseMeminfo(p.FS.Meminfo())
	if err != nil {
		return nil, err
	}
	return []lineproto.Point{lineproto.NewPoint(
		"memory",
		nil,
		map[string]lineproto.Value{
			"total_kb":     lineproto.Int(int64(m.TotalKB)),
			"free_kb":      lineproto.Int(int64(m.FreeKB)),
			"used_kb":      lineproto.Int(int64(m.UsedKB())),
			"used_percent": fval(100 * float64(m.UsedKB()) / float64(m.TotalKB)),
		},
		now,
	)}, nil
}

// NetworkPlugin emits per-interface byte/packet rates from consecutive
// /proc/net/dev snapshots (measurement "network").
type NetworkPlugin struct {
	FS ProcFS
	// Interfaces restricts emission (nil = all except lo).
	Interfaces []string

	prev     map[string]proc.NetCounters
	prevTime time.Time
}

// Name implements Plugin.
func (p *NetworkPlugin) Name() string { return "network" }

func (p *NetworkPlugin) wants(iface string) bool {
	if len(p.Interfaces) == 0 {
		return iface != "lo"
	}
	for _, w := range p.Interfaces {
		if w == iface {
			return true
		}
	}
	return false
}

// Collect implements Plugin.
func (p *NetworkPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	cur, err := proc.ParseNetDev(p.FS.NetDev())
	if err != nil {
		return nil, err
	}
	defer func() { p.prev = cur; p.prevTime = now }()
	if p.prev == nil {
		return nil, nil
	}
	dt := now.Sub(p.prevTime).Seconds()
	if dt <= 0 {
		return nil, nil
	}
	var out []lineproto.Point
	for iface, c := range cur {
		if !p.wants(iface) {
			continue
		}
		prev, ok := p.prev[iface]
		if !ok {
			continue
		}
		out = append(out, lineproto.NewPoint(
			"network",
			map[string]string{"interface": iface},
			map[string]lineproto.Value{
				"rx_bytes_per_s":   fval(float64(c.RxBytes-prev.RxBytes) / dt),
				"tx_bytes_per_s":   fval(float64(c.TxBytes-prev.TxBytes) / dt),
				"rx_packets_per_s": fval(float64(c.RxPackets-prev.RxPackets) / dt),
				"tx_packets_per_s": fval(float64(c.TxPackets-prev.TxPackets) / dt),
			},
			now,
		))
	}
	return out, nil
}

// DiskPlugin emits per-device I/O rates from consecutive /proc/diskstats
// snapshots (measurement "disk"), the "file I/O" metric of Sect. V.
type DiskPlugin struct {
	FS ProcFS

	prev     map[string]proc.DiskCounters
	prevTime time.Time
}

// Name implements Plugin.
func (p *DiskPlugin) Name() string { return "disk" }

// Collect implements Plugin.
func (p *DiskPlugin) Collect(now time.Time) ([]lineproto.Point, error) {
	cur, err := proc.ParseDiskstats(p.FS.Diskstats())
	if err != nil {
		return nil, err
	}
	defer func() { p.prev = cur; p.prevTime = now }()
	if p.prev == nil {
		return nil, nil
	}
	dt := now.Sub(p.prevTime).Seconds()
	if dt <= 0 {
		return nil, nil
	}
	var out []lineproto.Point
	for dev, c := range cur {
		prev, ok := p.prev[dev]
		if !ok {
			continue
		}
		out = append(out, lineproto.NewPoint(
			"disk",
			map[string]string{"device": dev},
			map[string]lineproto.Value{
				"read_bytes_per_s":  fval(float64(c.ReadSectors-prev.ReadSectors) * 512 / dt),
				"write_bytes_per_s": fval(float64(c.WriteSectors-prev.WriteSectors) * 512 / dt),
				"read_iops":         fval(float64(c.ReadIOs-prev.ReadIOs) / dt),
				"write_iops":        fval(float64(c.WriteIOs-prev.WriteIOs) / dt),
			},
			now,
		))
	}
	return out, nil
}
