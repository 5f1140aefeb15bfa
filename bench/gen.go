package main

// Workload generation. Everything the servers ever see — job signals,
// line-protocol bodies, InfluxQL statements and the order they are issued
// in — is a pure function of (workload, seed), so two runs with one seed
// offer byte-identical inputs. The generator also keeps the model the
// oracle (check.go) compares the servers' answers against.

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// The virtual clock of the generated data. Points are stamped on a
// 10 s agent cycle starting at baseNS (2017-08-04T00:00:00Z, the era the
// repo's simulator uses); a host's lines carry a per-host millisecond and
// a per-line microsecond offset so no two points of one measurement share
// a timestamp and first()/last() have exactly one right answer. The
// offsets start at 1 ms, so no point sits on a window edge, where the
// engine reads `time < t` as `time <= t` (bench/README.md, "Findings").
const (
	baseNS   = int64(1501804800) * 1e9
	cycleNS  = int64(10e9)
	sensorNS = int64(1e9)
)

// measurement is one plugin's output per host cycle: `lines` series,
// told apart by subTag, each with the same dense fields.
type measurement struct {
	name   string
	subTag string
	lines  int
	fields []field
}

type field struct {
	name  string
	isInt bool
}

func floats(names ...string) []field {
	out := make([]field, len(names))
	for i, n := range names {
		out[i] = field{name: n}
	}
	return out
}

func ints(names ...string) []field {
	out := make([]field, len(names))
	for i, n := range names {
		out[i] = field{name: n, isInt: true}
	}
	return out
}

// hostCycle is what one collector agent flushes per interval: 100 lines
// over the eight measurements internal/collector emits (2-6 fields each).
var hostCycle = []measurement{
	{"cpu", "", 1, floats("user", "system", "idle", "percent")},
	{"cpu_core", "core", 72, floats("user", "system", "idle", "percent")},
	{"memory", "", 1, ints("used_kb", "free_kb", "total_kb")},
	{"load", "", 1, append(floats("load1", "load5", "load15"), ints("runnable")...)},
	{"network", "device", 4, ints("rx_bytes", "tx_bytes", "rx_packets", "tx_packets")},
	{"disk", "device", 5, ints("read_kb", "write_kb")},
	{"likwid_mem", "socket", 8, floats("bandwidth_mbs", "data_volume_gb", "runtime_s")},
	{"likwid_flops", "socket", 8, floats("dp_mflop_s", "sp_mflop_s", "cpi", "clock_mhz", "runtime_s", "avx_share")},
}

// sensorReading is SNIPPETS.md snippet 1's traffic: one value per POST,
// no hostname tag, so the router's enrichment finds nothing to add.
var sensorReading = []measurement{
	{"sensor", "", 1, floats("value")},
}

const sensorOrgs = 4

// Statement kinds, in the order of spec.mix.
const (
	kindPanel = iota
	kindEval
	kindTail
	kindMeta
	numKinds
)

var kindNames = [numKinds]string{"panel", "eval", "tail", "meta"}

// spec is one workload: a topology, a traffic shape for each side, and
// how the run's seconds are split between them.
type spec struct {
	name, why string

	nodes int // lms-db processes; 3 = ring with R=2 W=1 behind -cluster-peers, 1 = -db-url

	// lms-db settings that differ from the shipped defaults (0 = default).
	checkpointBytes int64
	segmentBytes    int64
	compressAfter   time.Duration

	schema     []measurement
	sources    int // hosts (or things) emitting
	jobs       int // jobs the hosts are split into
	jobsEnd    bool
	histCycles int // cycles preloaded per source before measuring
	perWrite   int // source cycles per measured POST
	perPreload int // source cycles per preload POST

	pool      int           // distinct statements
	mix       [numKinds]int // request mix, percent
	repeatPct int           // share of panel requests repeating the previous statement

	concurrent bool    // writer and reader run side by side (one connection each)
	writeShare float64 // share of the measured seconds given to the write side when sequential

	writeRate float64 // open-phase POSTs/s
	queryRate float64 // open-phase GETs/s
}

// The open rates are absolute and frozen, so both sides of a later
// comparison see one offered load: 10-23 % of the closed-phase capacity
// bench/baseline recorded on the commit that introduced the benchmark
// (bench/README.md, "How the open rates were fixed").
var workloads = []spec{
	{
		name:  "collector-batch",
		why:   "100-line host cycles via router into the 3-node R=2 ring: parse, enrich, split, re-encode, peer hop, WAL and apply all work",
		nodes: 3, schema: hostCycle, sources: 64, jobs: 4, histCycles: 12, perWrite: 1, perPreload: 20,
		pool: 16, mix: [numKinds]int{100, 0, 0, 0},
		writeShare: 0.65, writeRate: 60, queryRate: 600,
	},
	{
		name:  "single-point",
		why:   "one sensor line per POST via router into one lms-db: per-request cost dominates and internal/cluster does nothing",
		nodes: 1, schema: sensorReading, sources: 64, histCycles: 600, perWrite: 1, perPreload: 2000,
		pool: 16, mix: [numKinds]int{70, 0, 30, 0},
		writeShare: 0.65, writeRate: 400, queryRate: 1500,
	},
	{
		name:  "dashboard-read",
		why:   "read-mostly over a preloaded history in the four statement shapes dashboard and analysis emit; writes are bulk backfill",
		nodes: 3, checkpointBytes: 4 << 20, segmentBytes: 1 << 20,
		schema: hostCycle, sources: 32, jobs: 3, jobsEnd: true, histCycles: 24, perWrite: 2, perPreload: 20,
		pool: 2048, mix: [numKinds]int{60, 15, 15, 10}, repeatPct: 30,
		writeShare: 0.4, writeRate: 40, queryRate: 250,
	},
	{
		name:  "mixed-live",
		why:   "one connection writes host cycles while one refreshes panels over the same measurements, with checkpoints and compaction cycling",
		nodes: 3, checkpointBytes: 256 << 10, segmentBytes: 64 << 10, compressAfter: 2 * time.Second,
		schema: hostCycle, sources: 64, jobs: 4, histCycles: 12, perWrite: 1, perPreload: 20,
		pool: 512, mix: [numKinds]int{100, 0, 0, 0},
		concurrent: true, writeRate: 30, queryRate: 60,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// dbFlags renders the non-default lms-db settings as command-line flags.
func (s spec) dbFlags() []string {
	var out []string
	if s.checkpointBytes > 0 {
		out = append(out, "-checkpoint-bytes", strconv.FormatInt(s.checkpointBytes, 10))
	}
	if s.segmentBytes > 0 {
		out = append(out, "-segment-bytes", strconv.FormatInt(s.segmentBytes, 10))
	}
	if s.compressAfter > 0 {
		out = append(out, "-compress-after", s.compressAfter.String())
	}
	return out
}

// period returns the emission period of the workload's sources.
func (s spec) period() int64 {
	if s.schema[0].name == "sensor" {
		return sensorNS
	}
	return cycleNS
}

// linesPerCycle is the number of points one source emits per cycle.
func (s spec) linesPerCycle() int {
	n := 0
	for _, m := range s.schema {
		n += m.lines
	}
	return n
}

// jobSignal is the body of POST /api/job/start.
type jobSignal struct {
	JobID    string            `json:"jobid"`
	Username string            `json:"username"`
	Nodes    []string          `json:"nodes"`
	Tags     map[string]string `json:"tags"`
}

// statement is one read request.
type statement struct {
	kind  int
	text  string
	epoch string // "" or "ns", as the emitting component asks
}

// agg is the oracle's per-measurement model of the first field: what
// SELECT count, min, max, first, last must return.
type agg struct {
	Count   int64
	Min     float64
	Max     float64
	First   float64
	Last    float64
	firstTS int64
	lastTS  int64
}

func (a *agg) observe(ts int64, v float64) {
	if a.Count == 0 {
		*a = agg{Count: 1, Min: v, Max: v, First: v, Last: v, firstTS: ts, lastTS: ts}
		return
	}
	a.Count++
	a.Min = math.Min(a.Min, v)
	a.Max = math.Max(a.Max, v)
	if ts < a.firstTS {
		a.firstTS, a.First = ts, v
	}
	if ts > a.lastTS {
		a.lastTS, a.Last = ts, v
	}
}

func (a *agg) merge(o agg) {
	if o.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = o
		return
	}
	a.Count += o.Count
	a.Min = math.Min(a.Min, o.Min)
	a.Max = math.Max(a.Max, o.Max)
	if o.firstTS < a.firstTS {
		a.firstTS, a.First = o.firstTS, o.First
	}
	if o.lastTS > a.lastTS {
		a.lastTS, a.Last = o.lastTS, o.Last
	}
}

// summary is one body's contribution to the model, indexed like
// spec.schema.
type summary struct {
	points int
	aggs   []agg
}

// gen generates one workload's inputs for one seed.
type gen struct {
	spec
	seed uint64
}

func newGen(s spec, seed int64) *gen {
	return &gen{spec: s, seed: mix64(uint64(seed) ^ 0x6c6d732d62656e63)}
}

// mix64 is the splitmix64 finalizer: a stateless hash, so any value of
// any line can be produced without generating the lines before it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a small seeded sequence for the choices made once at set-up
// (statement pool, request order).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (g *gen) sourceName(i int) string {
	if g.schema[0].name == "sensor" {
		return fmt.Sprintf("t%02d", i)
	}
	return fmt.Sprintf("h%03d", i)
}

// jobSignals splits the sources evenly into the workload's jobs; each
// signal carries four job tags (jobid, username, queue, project).
func (g *gen) jobSignals() []jobSignal {
	var out []jobSignal
	for j := 0; j < g.jobs; j++ {
		sig := jobSignal{
			JobID:    fmt.Sprintf("%d.master", 4711+j),
			Username: fmt.Sprintf("user%d", j%3),
			Tags:     map[string]string{"queue": "batch", "project": fmt.Sprintf("p%d", j%2)},
		}
		for h := j * g.sources / g.jobs; h < (j+1)*g.sources/g.jobs; h++ {
			sig.Nodes = append(sig.Nodes, g.sourceName(h))
		}
		out = append(out, sig)
	}
	return out
}

// value returns field f of line l of source cycle unit, in eighths for a
// float field. Each series sits on its own level with two units of noise
// on top, the way a utilisation or bandwidth metric does. Eighths, not
// hundredths, because a mean() folds its bucket in arrival order and
// float addition rounds: with dyadic values every partial sum is exact,
// so an answer cannot depend on how concurrent requests interleaved.
func (g *gen) value(unit, line, f int) int64 {
	src := unit % g.sources
	level := mix64(g.seed^uint64(src)<<32^uint64(line)<<8^uint64(f)) % 8000
	noise := mix64(g.seed^uint64(unit)<<20^uint64(line)<<8^uint64(f)^0xabcdef) % 16
	return int64(level + noise)
}

// appendUnit appends the lines of one source cycle (unit = cycle *
// sources + source) and folds them into sum.
func (g *gen) appendUnit(dst []byte, unit int, sum *summary) []byte {
	src, cycle := unit%g.sources, unit/g.sources
	ts := baseNS + int64(cycle)*g.period() + int64(src+1)*1e6
	line := 0
	for mi, m := range g.schema {
		for sub := 0; sub < m.lines; sub++ {
			dst = append(dst, m.name...)
			if m.name == "sensor" {
				dst = append(dst, ",thing="...)
				dst = append(dst, g.sourceName(src)...)
				dst = append(dst, ",org=o"...)
				dst = strconv.AppendInt(dst, int64(src%sensorOrgs), 10)
			} else {
				dst = append(dst, ",hostname="...)
				dst = append(dst, g.sourceName(src)...)
			}
			if m.subTag != "" {
				dst = append(dst, ',')
				dst = append(dst, m.subTag...)
				dst = append(dst, '=')
				dst = strconv.AppendInt(dst, int64(sub), 10)
			}
			sep := byte(' ')
			for fi, f := range m.fields {
				v := g.value(unit, line, fi)
				dst = append(dst, sep)
				sep = ','
				dst = append(dst, f.name...)
				dst = append(dst, '=')
				if f.isInt {
					dst = strconv.AppendInt(dst, v, 10)
					dst = append(dst, 'i')
				} else {
					dst = appendEighths(dst, v)
				}
				if fi == 0 {
					fv := float64(v)
					if !f.isInt {
						fv /= 8
					}
					sum.aggs[mi].observe(ts, fv)
				}
			}
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, ts, 10)
			dst = append(dst, '\n')
			ts += 1000
			line++
			sum.points++
		}
	}
	return dst
}

func appendEighths(dst []byte, v int64) []byte {
	dst = strconv.AppendInt(dst, v/8, 10)
	frac := v % 8 * 125
	return append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

func (g *gen) newSummary() summary { return summary{aggs: make([]agg, len(g.schema))} }

// body builds the POST body covering source cycles [from, from+n).
func (g *gen) body(dst []byte, from, n int) ([]byte, summary) {
	sum := g.newSummary()
	for u := from; u < from+n; u++ {
		dst = g.appendUnit(dst, u, &sum)
	}
	return dst, sum
}

// histUnits is the number of source cycles in the preloaded history.
func (g *gen) histUnits() int { return g.histCycles * g.sources }

// preloadBodies returns the history in agent arrival order (cycle by
// cycle, source by source), perPreload source cycles per POST.
func (g *gen) preloadBodies() ([][]byte, summary) {
	total := g.newSummary()
	var out [][]byte
	for from := 0; from < g.histUnits(); from += g.perPreload {
		n := min(g.perPreload, g.histUnits()-from)
		b, sum := g.body(nil, from, n)
		out = append(out, b)
		total.add(sum)
	}
	return out, total
}

func (s *summary) add(o summary) {
	s.points += o.points
	for i := range o.aggs {
		s.aggs[i].merge(o.aggs[i])
	}
}

// writeBody is measured POST i: it continues the timeline where the
// history stopped.
func (g *gen) writeBody(dst []byte, i int) ([]byte, summary) {
	return g.body(dst, g.histUnits()+i*g.perWrite, g.perWrite)
}

// statements builds the read pool over the preloaded history window.
// The cost of a statement follows its measurement (1 to 72 series per
// host) and the length of its window, so those two are dealt out evenly
// — statement n of a kind takes measurement n mod 8 and window length
// n/8 mod spans — and the seed only picks field, job, host and where the
// window starts: pools of different seeds cost the same to answer.
// SELECT statements are pairwise distinct as far as the history allows,
// so result-cache hits come from the repeats requestOrder puts in on
// purpose and from walking a pool faster than the cache's TTL.
func (g *gen) statements() []statement {
	r := &rng{s: g.seed ^ 0x73746d74}
	sigs := g.jobSignals()
	seen := map[string]bool{}
	var out []statement
	for k := 0; k < numKinds; k++ {
		want := g.pool * g.freshShare(k) / 1000
		for n := 0; n < want; n++ {
			st := g.statement(r, k, n, sigs)
			for tries := 0; seen[st.text] && k != kindMeta && tries < 20; tries++ {
				st = g.statement(r, k, n, sigs)
			}
			seen[st.text] = true
			out = append(out, st)
		}
	}
	// Shuffle so kinds interleave the way concurrent dashboard users do.
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// freshShare returns kind k's share of the pool in permille. Repeats add
// panel requests on top of the pool walk, so the pool holds fewer panels
// than the request mix asks for: with p the panel share of requests and
// q the repeat share of panel requests, fresh panels are p(1-q) of the
// requests and every other kind keeps its share; the pool is that mix
// renormalised.
func (g *gen) freshShare(k int) int {
	fresh := func(k int) float64 {
		if k == kindPanel {
			return float64(g.mix[k]) * float64(100-g.repeatPct) / 100
		}
		return float64(g.mix[k])
	}
	total := 0.0
	for i := 0; i < numKinds; i++ {
		total += fresh(i)
	}
	return int(math.Round(1000 * fresh(k) / total))
}

// statement builds statement n of a kind.
func (g *gen) statement(r *rng, kind, n int, sigs []jobSignal) statement {
	m := g.schema[n%len(g.schema)]
	fi := r.intn(len(m.fields))
	f, f2 := m.fields[fi].name, m.fields[(fi+1)%len(m.fields)].name
	// Windows lie inside the history, are one minute to half of it long
	// and start on any cycle.
	minutes := int(int64(g.histCycles) * g.period() / 60e9)
	span := 1 + n/len(g.schema)%max(1, minutes/2)
	perMinute := int(60e9 / g.period())
	from := r.intn(g.histCycles - span*perMinute + 1)
	a := baseNS + int64(from)*g.period()
	b := a + int64(span)*60e9
	if m.name == "sensor" {
		thing := g.sourceName(r.intn(g.sources))
		switch kind {
		case kindPanel:
			return statement{kind, fmt.Sprintf("SELECT mean(value) FROM sensor WHERE thing = '%s' AND time >= %d AND time < %d GROUP BY time(10s)", thing, a, b), ""}
		case kindEval:
			return statement{kind, fmt.Sprintf("SELECT mean(value) FROM sensor WHERE org = 'o%d' AND time >= %d AND time < %d GROUP BY thing", r.intn(sensorOrgs), a, b), "ns"}
		case kindTail:
			return statement{kind, fmt.Sprintf("SELECT value FROM sensor WHERE thing = '%s' AND time >= %d AND time < %d LIMIT 100", thing, a, b), "ns"}
		}
		return statement{kind, "SHOW TAG VALUES FROM sensor WITH KEY = thing", ""}
	}
	job := sigs[r.intn(len(sigs))]
	switch kind {
	case kindPanel:
		return statement{kind, fmt.Sprintf("SELECT mean(%s) FROM %s WHERE jobid = '%s' AND time >= %d AND time < %d GROUP BY time(60s), hostname", f, m.name, job.JobID, a, b), ""}
	case kindEval:
		// Two fields: two aggregates of one field come back as one
		// (bench/README.md, "Findings").
		// The whole job from one of its early cycles on: distinct enough
		// that two evaluations do not share a cache entry.
		return statement{kind, fmt.Sprintf("SELECT mean(%s), max(%s) FROM %s WHERE jobid = '%s' AND time >= %d GROUP BY hostname", f, f2, m.name, job.JobID, baseNS+int64(r.intn(g.histCycles/2))*g.period()), "ns"}
	case kindTail:
		host := job.Nodes[r.intn(len(job.Nodes))]
		return statement{kind, fmt.Sprintf("SELECT %s FROM %s WHERE hostname = '%s' AND time >= %d AND time < %d LIMIT 100", f, m.name, host, a, b), "ns"}
	}
	if n%3 == 0 {
		return statement{kind, "SHOW MEASUREMENTS", ""}
	}
	return statement{kind, fmt.Sprintf("SHOW TAG VALUES FROM %s WITH KEY = hostname", m.name), ""}
}

// requestOrder returns the pool indices reader `conn` of `conns` issues,
// in order: its share of the pool walk, with a repeat of the statement
// just issued after a panel with probability repeatPct (so repeats are
// that share of all panel requests). The order wraps when exhausted.
func (g *gen) requestOrder(pool []statement, conn, conns int) []int {
	r := &rng{s: g.seed ^ 0x6f726472 ^ uint64(conn)}
	var out []int
	for i := conn; i < len(pool); i += conns {
		out = append(out, i)
		for pool[i].kind == kindPanel && r.intn(100) < g.repeatPct {
			out = append(out, i)
		}
	}
	return out
}
