package hpm

import (
	"fmt"
	"sort"
	"sync"
)

// Session is one HPM measurement: a performance group armed on a set of
// hardware threads, the programmatic equivalent of
// `likwid-perfctr -g GROUP -c CPULIST`. The usual cycle is
// Start -> (workload advances the machine) -> Stop -> Result.
//
// Counter overflow: registers wrap at 48 bits; deltas are computed modulo
// 2^48, so a single wrap between Start and Stop is handled exactly like in
// the real tool.
type Session struct {
	machine *Machine
	group   *Group
	threads []int

	mu       sync.Mutex
	running  bool
	started  bool
	startT   float64
	stopT    float64
	startCnt map[int]map[string]uint64 // thread -> counter reg -> raw value
	stopCnt  map[int]map[string]uint64
}

// NewSession prepares a measurement of group g, resolved through a
// GroupSet, on the given hardware threads (all threads when threads is
// empty).
func NewSession(m *Machine, g *Group, threads []int) (*Session, error) {
	n := m.Topology().NumHWThreads()
	if len(threads) == 0 {
		threads = make([]int, n)
		for i := range threads {
			threads[i] = i
		}
	}
	seen := map[int]bool{}
	for _, t := range threads {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("hpm: hwthread %d out of range [0,%d)", t, n)
		}
		if seen[t] {
			return nil, fmt.Errorf("hpm: hwthread %d listed twice", t)
		}
		seen[t] = true
	}
	sorted := append([]int(nil), threads...)
	sort.Ints(sorted)
	return &Session{machine: m, group: g, threads: sorted}, nil
}

// Start samples all counters and begins the measurement interval.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return fmt.Errorf("hpm: session already running")
	}
	cnt, err := s.sample()
	if err != nil {
		return err
	}
	s.startCnt = cnt
	s.startT = s.machine.Now()
	s.running = true
	s.started = true
	return nil
}

// Stop samples all counters and ends the measurement interval.
func (s *Session) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return fmt.Errorf("hpm: session not running")
	}
	cnt, err := s.sample()
	if err != nil {
		return err
	}
	s.stopCnt = cnt
	s.stopT = s.machine.Now()
	s.running = false
	return nil
}

// sample reads every assigned counter for every measured thread. For
// socket-scope counters the socket register of the thread's socket is read;
// the result attribution (first thread per socket) happens in Result.
func (s *Session) sample() (map[int]map[string]uint64, error) {
	out := make(map[int]map[string]uint64, len(s.threads))
	for _, tid := range s.threads {
		sock, err := s.machine.Topology().SocketOf(tid)
		if err != nil {
			return nil, err
		}
		regs := make(map[string]uint64, len(s.group.Events))
		for _, ea := range s.group.Events {
			var v uint64
			if ea.Event.Scope == ScopeSocket {
				v, err = s.machine.ReadSocketCounter(sock, ea.Event.Name)
			} else {
				v, err = s.machine.ReadThreadCounter(tid, ea.Event.Name)
			}
			if err != nil {
				return nil, err
			}
			regs[ea.Counter] = v
		}
		out[tid] = regs
	}
	return out, nil
}

// Result holds the evaluated measurement.
type Result struct {
	Group    string
	Threads  []int
	Duration float64 // simulated seconds between Start and Stop

	// Raw holds per-thread counter deltas. Socket-scope counters are
	// attributed to the first measured thread of each socket and zero on
	// the others, matching likwid-perfctr output.
	Raw map[int]map[string]uint64

	// Metrics holds per-thread derived metric values keyed by metric name.
	Metrics map[int]map[string]float64

	metricOrder []string
}

// Result evaluates the finished measurement. It is an error to call it
// while the session is running or before any interval was measured.
func (s *Session) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return nil, fmt.Errorf("hpm: session still running")
	}
	if !s.started || s.stopCnt == nil {
		return nil, fmt.Errorf("hpm: no finished measurement")
	}
	res := &Result{
		Group:       s.group.Name,
		Threads:     append([]int(nil), s.threads...),
		Duration:    s.stopT - s.startT,
		Raw:         make(map[int]map[string]uint64, len(s.threads)),
		Metrics:     make(map[int]map[string]float64, len(s.threads)),
		metricOrder: s.group.MetricNames(),
	}
	inverseClock := 1.0 / (s.machine.Topology().BaseClockMHz * 1e6)
	socketSeen := map[int]bool{}
	for _, tid := range s.threads {
		sock, _ := s.machine.Topology().SocketOf(tid)
		firstOfSocket := !socketSeen[sock]
		socketSeen[sock] = true
		deltas := make(map[string]uint64, len(s.group.Events))
		for _, ea := range s.group.Events {
			start := s.startCnt[tid][ea.Counter]
			stop := s.stopCnt[tid][ea.Counter]
			delta := (stop - start) & CounterMask // modulo 2^48 handles one wrap
			if ea.Event.Scope == ScopeSocket && !firstOfSocket {
				delta = 0
			}
			deltas[ea.Counter] = delta
		}
		res.Raw[tid] = deltas

		vars := make(map[string]float64, len(deltas)+2)
		for reg, d := range deltas {
			vars[reg] = float64(d)
		}
		vars[VarTime] = res.Duration
		vars[VarInverseClock] = inverseClock
		mv := make(map[string]float64, len(s.group.Metrics))
		for _, m := range s.group.Metrics {
			v, err := m.Formula.Eval(vars)
			if err != nil {
				return nil, err
			}
			mv[m.Name] = v
		}
		res.Metrics[tid] = mv
	}
	return res, nil
}

// MetricNames returns the group's metric names in file order.
func (r *Result) MetricNames() []string {
	return append([]string(nil), r.metricOrder...)
}

// Sum aggregates one metric over all measured threads. For rate- and
// volume-like metrics (MFLOP/s, bandwidth, data volume) the sum is the node
// value.
func (r *Result) Sum(metric string) float64 {
	var s float64
	for _, tid := range r.Threads {
		s += r.Metrics[tid][metric]
	}
	return s
}

// Mean aggregates one metric as the average over measured threads (for
// intensive metrics like CPI or Clock).
func (r *Result) Mean(metric string) float64 {
	if len(r.Threads) == 0 {
		return 0
	}
	return r.Sum(metric) / float64(len(r.Threads))
}
