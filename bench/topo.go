package main

// The real topology: lms-router and lms-db built from this checkout and
// run as child processes on loopback, with their data directories under
// bench/out. Nothing here knows a Go API of the program; it uses the
// binaries' flags, their HTTP endpoints and /proc.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	database     = "lms"
	readyTimeout = 20 * time.Second
	stopTimeout  = 20 * time.Second
	// Linux reports process times in USER_HZ ticks, 100 per second on
	// every architecture Go runs on.
	clockTick = 100
)

// env is where the benchmark builds and runs.
type env struct {
	root   string // the checkout: holds BENCHMARK.json and cmd/
	outDir string // bench/out: binaries, data dirs, trace files
	buildS float64
}

// findEnv walks up from the working directory to the checkout root, so
// the benchmark works from the root (`go run ./bench` in a workspace) and
// from its own directory (`go run -C bench .`).
func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "lms-db")); err == nil {
				return &env{root: dir, outDir: filepath.Join(dir, "bench", "out")}, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no checkout with BENCHMARK.json and cmd/lms-db above the working directory")
		}
		dir = parent
	}
}

func (e *env) bin(name string) string { return filepath.Join(e.outDir, "bin", name) }

// build compiles the two servers from the checkout. The go tool's cache
// makes every build after the first a sub-second no-op.
func (e *env) build() error {
	start := time.Now()
	if err := os.MkdirAll(filepath.Join(e.outDir, "bin"), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.outDir, "bin")+string(filepath.Separator), "./cmd/lms-db", "./cmd/lms-router")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lms-db ./cmd/lms-router: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return nil
}

// proc is one child process.
type proc struct {
	name   string
	bin    string
	args   []string
	url    string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
}

func (p *proc) start() error {
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stdout = io.Discard
	p.stderr.Reset()
	p.cmd.Stderr = &p.stderr
	// If the benchmark dies without running its cleanup (SIGKILL at a
	// driver timeout), the kernel takes the children down with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status of a signalled child is not news
		close(done)
	}(p.cmd, p.done)
	return nil
}

// ready polls /ping until the server answers or the child exits.
func (p *proc) ready() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up; stderr:\n%s", p.name, p.stderr.String())
		default:
		}
		resp, err := http.Get(p.url + "/ping")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready on %s after %v; stderr:\n%s", p.name, p.url, readyTimeout, p.stderr.String())
}

// signal sends sig and waits for the child to end, escalating to SIGKILL
// if a graceful stop outlasts stopTimeout.
func (p *proc) signal(sig syscall.Signal) {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(sig) // fails only if the child is already gone
	select {
	case <-p.done:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stack is one running topology: where to write, where to query, and —
// for the child-process form — the processes behind the URLs. The
// in-process assembly of layers.go fills only the URLs and close.
type stack struct {
	router string
	nodes  []string

	fixedPorts bool // the ring has the placement every other run has
	dir        string
	dbs        []*proc
	routerP    *proc
	closeFns   []func()
}

// live tracks the stacks that own child processes and directories, so a
// failure or SIGINT anywhere can take them all down.
var live struct {
	sync.Mutex
	stacks map[*stack]bool
}

func killAllStacks() {
	live.Lock()
	defer live.Unlock()
	for st := range live.stacks {
		st.destroyLocked()
	}
}

// basePort is where the benchmark's servers listen when it is free. A
// node's URL is its id on the consistent-hash ring, so the ports decide
// which node owns which measurement; fixed ports make every run — and
// both sides of a comparison — see one placement.
const basePort = 18600

// pickPorts returns n loopback ports that were free a moment ago: the
// fixed ones from basePort if all of them are, else whatever the kernel
// hands out (fixed reports which).
func pickPorts(n int) (ports []int, fixed bool, err error) {
	listen := func(port func(i int) int) ([]int, error) {
		var ls []net.Listener
		defer func() {
			for _, l := range ls {
				l.Close()
			}
		}()
		out := make([]int, n)
		for i := range out {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port(i)))
			if err != nil {
				return nil, err
			}
			ls = append(ls, l)
			out[i] = l.Addr().(*net.TCPAddr).Port
		}
		return out, nil
	}
	if ports, err = listen(func(i int) int { return basePort + i }); err == nil {
		return ports, true, nil
	}
	ports, err = listen(func(int) int { return 0 })
	return ports, false, err
}

var runCounter int

// startStack picks free ports, lists them as peers, starts every lms-db
// and then the router, and waits for each /ping. Flush policy is the
// shipped default (-fsync batch) on the checkout's filesystem.
func (e *env) startStack(s spec) (*stack, error) {
	ports, fixed, err := pickPorts(s.nodes + 1)
	if err != nil {
		return nil, err
	}
	runCounter++
	st := &stack{fixedPorts: fixed, dir: filepath.Join(e.outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), runCounter))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	live.Lock()
	if live.stacks == nil {
		live.stacks = map[*stack]bool{}
	}
	live.stacks[st] = true
	live.Unlock()

	for i := 0; i < s.nodes; i++ {
		st.nodes = append(st.nodes, fmt.Sprintf("http://127.0.0.1:%d", ports[i]))
	}
	st.router = fmt.Sprintf("http://127.0.0.1:%d", ports[s.nodes])
	peers := strings.Join(st.nodes, ",")
	for i, u := range st.nodes {
		args := []string{"-addr", strings.TrimPrefix(u, "http://"), "-db", database,
			"-data-dir", filepath.Join(st.dir, fmt.Sprintf("db%d", i)), "-fsync", "batch", "-log-level", "error"}
		if s.nodes > 1 {
			args = append(args, "-cluster-peers", peers, "-node-id", u, "-replication", "2")
		}
		args = append(args, s.dbFlags()...)
		st.dbs = append(st.dbs, &proc{name: fmt.Sprintf("lms-db[%d]", i), bin: e.bin("lms-db"), args: args, url: u})
	}
	rargs := []string{"-addr", strings.TrimPrefix(st.router, "http://"), "-db", database, "-log-level", "error"}
	if s.nodes > 1 {
		rargs = append(rargs, "-cluster-peers", peers, "-replication", "2", "-write-quorum", "1",
			"-hints-dir", filepath.Join(st.dir, "hints"))
	} else {
		rargs = append(rargs, "-db-url", st.nodes[0])
	}
	st.routerP = &proc{name: "lms-router", bin: e.bin("lms-router"), args: rargs, url: st.router}

	for _, p := range st.servers() {
		if err := p.start(); err != nil {
			st.destroy()
			return nil, err
		}
	}
	for _, p := range st.servers() {
		if err := p.ready(); err != nil {
			st.destroy()
			return nil, err
		}
	}
	return st, nil
}

// destroy kills whatever still runs and removes the run directory.
func (st *stack) destroy() {
	live.Lock()
	defer live.Unlock()
	st.destroyLocked()
}

func (st *stack) destroyLocked() {
	st.closeAll()
	for _, p := range st.servers() {
		if p.done != nil {
			p.signal(syscall.SIGKILL)
		}
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir) // best effort; bench/out is disposable
	}
	delete(live.stacks, st)
}

// stopGraceful ends the run the way an operator would: the router first
// (nothing is in flight any more), then SIGTERM to every lms-db, which
// flushes its WAL and writes the final checkpoint before exiting.
func (st *stack) stopGraceful() {
	st.routerP.signal(syscall.SIGTERM)
	for _, p := range st.dbs {
		p.signal(syscall.SIGTERM)
	}
}

// crashRestart SIGKILLs every lms-db and starts it again on the same
// data directory and port.
func (st *stack) crashRestart() error {
	for _, p := range st.dbs {
		p.signal(syscall.SIGKILL)
	}
	for _, p := range st.dbs {
		if err := p.start(); err != nil {
			return err
		}
	}
	for _, p := range st.dbs {
		if err := p.ready(); err != nil {
			return err
		}
	}
	return nil
}

// servers lists the child processes, lms-db first; none for the
// in-process assembly.
func (st *stack) servers() []*proc {
	if st.routerP == nil {
		return nil
	}
	return append(append([]*proc{}, st.dbs...), st.routerP)
}

// cpuSeconds sums the time every thread of every server process has
// spent on a CPU. The scheduler's per-task run time (nanoseconds, in
// /proc/<pid>/task/<tid>/schedstat) is the same quantity as utime+stime
// of /proc/<pid>/stat without the sampling error of tick accounting,
// which charges whole 10 ms ticks to whoever runs when the tick fires;
// where the kernel keeps no schedstat the ticks are used.
func (st *stack) cpuSeconds() float64 {
	total := 0.0
	for _, p := range st.servers() {
		total += procCPUSeconds(p.pid())
	}
	return total
}

func procCPUSeconds(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	ns, found := 0.0, false
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		if f := strings.Fields(string(data)); len(f) == 3 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
			found = true
		}
	}
	if found {
		return ns / 1e9
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0 // a process that is gone has no more time to report
	}
	// The command name may hold spaces; the fixed fields follow the last
	// ')'. utime and stime are fields 14 and 15 of the line.
	rest := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(rest) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(rest[11], 64)
	sy, _ := strconv.ParseFloat(rest[12], 64)
	return (u + sy) / clockTick
}

// rssMB sums the peak resident set (VmHWM) of all server processes.
func (st *stack) rssMB() float64 {
	kb := 0.0
	for _, p := range st.servers() {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.pid()))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				kb += v
			}
		}
		f.Close()
	}
	return kb / 1024
}

// diskBytes sums the regular files under the run directory: every data
// directory plus the router's hints directory.
func (st *stack) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(st.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// ownCPUSeconds is the generator's own user+system time.
func ownCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// samples is one /metrics scrape: series (name plus label set, as
// printed) to value.
type samples map[string]float64

func scrape(base string) (samples, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	out := samples{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET %s/metrics: bad sample %q", base, line)
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds up every series of one metric whose label set contains label
// ("" matches all).
func (s samples) sum(name, label string) float64 {
	total := 0.0
	for series, v := range s {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

// scrapeEach scrapes every given server.
func scrapeEach(urls []string) ([]samples, error) {
	out := make([]samples, len(urls))
	for i, u := range urls {
		s, err := scrape(u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta returns after - before per series.
func (s samples) delta(before samples) samples {
	out := samples{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}
