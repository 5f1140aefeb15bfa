package main

// One end-to-end run of one workload: set-up, warm-up, closed phases for
// capacity and CPU, open phases for latency, then the oracle, the crash
// restart and the graceful stop. The runner sees a stack only through
// its URLs, so the same code drives the child processes and the
// in-process assembly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	setupRepeats = 3 // set-ups per run; setup_s is their median
	crashRepeats = 3 // SIGKILL/restart cycles of a traced run; loadgen.recovery_s is their median
	warmupShare  = 0.1
	rounds       = 4    // the measured time is this many rounds of every phase
	closedShare  = 0.45 // of a side's measured time; the rest is its open phase
	// clients is the number of connections a side uses. A closed phase
	// reads capacity only if its callers keep both vCPUs busy through
	// every wait (fsync, peer hop, wake-up); with two callers single-point
	// read its round-trip time instead, +-20 % from run to run where eight
	// callers repeat within 2 %. mixed-live gives each side half.
	clients = 8
)

// measurements is everything a run observed, before it is turned into
// named metrics.
type measurements struct {
	setupS []float64

	wClosed, wOpen, qClosed, qOpen phase
	cpuW, cpuQ                     []float64 // server CPU seconds per successful request, per window of the closed phases
	ackedPoints                    int64     // every acknowledged user point, set-up included
	kindMS                         [numKinds][]float64
	repeats, selects               int // issued in the measured read phases

	residentBytes, compressedBytes float64
	diskBytes                      int64
	recoveryS                      float64
	crashes                        int
	hintsPending                   float64
	rssMB                          float64
	ownCPU, wallS                  float64

	dbDelta, routerDelta samples // /metrics over the measured phases
	minCheckpoints       float64 // fewest checkpoints any one lms-db completed in them
	nodes                int
	pointsPerWrite       int

	verdict
}

// runner holds the state of one run.
type runner struct {
	g     *gen
	st    *stack
	pool  []statement
	refs  []uint64
	order [][]int // per reader connection
	urls  [][]string

	wconns, rconns []*conn
	readPos        []int
	nextWrite      int
	model          summary
	mu             sync.Mutex
	m              *measurements
}

var traceHeader = http.CanonicalHeaderKey("X-Lms-Trace")

// postBody sends one line-protocol body to the router, under an op id if
// the request is traced.
func postBody(c *conn, router string, body []byte, op string) bool {
	var h http.Header
	if op != "" {
		h = http.Header{traceHeader: {op}}
	}
	status, _, err := c.do(http.MethodPost, writeURL(router), body, h)
	return err == nil && status == http.StatusNoContent
}

// prepare runs the set-up traffic against a fresh stack: job starts, the
// history over two connections, job ends.
func prepare(g *gen, st *stack, bodies [][]byte) error {
	c := newConn()
	defer c.close()
	sigs := g.jobSignals()
	signal := func(path string, sig jobSignal) error {
		b, err := json.Marshal(sig)
		if err != nil {
			return err
		}
		status, body, err := c.do(http.MethodPost, st.router+path, b, nil)
		if err != nil || status != http.StatusNoContent {
			return fmt.Errorf("POST %s: status %d err %v %s", path, status, err, body)
		}
		return nil
	}
	for _, sig := range sigs {
		if err := signal("/api/job/start", sig); err != nil {
			return err
		}
	}
	conns := []*conn{c, newConn()}
	defer conns[1].close()
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w, wc := range conns {
		wg.Add(1)
		go func(w int, wc *conn) {
			defer wg.Done()
			for i := w; i < len(bodies); i += len(conns) {
				if !postBody(wc, st.router, bodies[i], "") {
					failed.Add(1)
				}
			}
		}(w, wc)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		return fmt.Errorf("%d of %d preload POSTs were not acknowledged", n, len(bodies))
	}
	if g.jobsEnd {
		for _, sig := range sigs {
			if err := signal("/api/job/end", sig); err != nil {
				return err
			}
		}
	}
	return nil
}

// newRunner wires a runner to a prepared stack.
func newRunner(in *inputs, st *stack, m *measurements) *runner {
	g, pool := in.g, in.pool
	r := &runner{g: g, st: st, pool: pool, refs: in.refs, model: g.newSummary(), m: m}
	r.model.add(in.history)
	m.ackedPoints = int64(in.history.points)
	m.nodes = len(st.nodes)
	m.pointsPerWrite = g.perWrite * g.linesPerCycle()
	for c := 0; c < clients; c++ {
		r.wconns = append(r.wconns, newConn())
		r.rconns = append(r.rconns, newConn())
		r.order = append(r.order, g.requestOrder(pool, c, clients))
		door := st.nodes[c%len(st.nodes)]
		urls := make([]string, len(pool))
		for i, s := range pool {
			urls[i] = queryURL(door, s)
		}
		r.urls = append(r.urls, urls)
	}
	r.readPos = make([]int, clients)
	return r
}

func (r *runner) close() {
	for _, c := range append(r.wconns, r.rconns...) {
		c.close()
	}
}

// writer is the write side of one loop. Each connection keeps its own
// body buffer, its own tally of what was acknowledged and the highest
// write number it used; fold merges them into the runner once the loop
// has ended.
type writer struct {
	r     *runner
	bufs  [][]byte
	acked []summary
	used  []int
}

func (r *runner) newWriter() *writer {
	w := &writer{r: r, bufs: make([][]byte, clients), acked: make([]summary, clients), used: make([]int, clients)}
	for i := range w.acked {
		w.acked[i] = r.g.newSummary()
	}
	return w
}

// op sends write number i of the loop on connection c.
func (w *writer) op(c, i int) bool {
	w.used[c] = max(w.used[c], i+1)
	var sum summary
	w.bufs[c], sum = w.r.g.writeBody(w.bufs[c][:0], w.r.nextWrite+i)
	ok := postBody(w.r.wconns[c], w.r.st.router, w.bufs[c], "")
	if ok {
		w.acked[c].add(sum)
	}
	return ok
}

// fold closes a write loop: what it got acknowledged joins the model,
// and the next loop continues after the highest write number it used.
func (w *writer) fold() {
	for _, a := range w.acked {
		w.r.model.add(a)
		w.r.m.ackedPoints += int64(a.points)
	}
	w.r.nextWrite += slices.Max(w.used)
}

// read is the op of the read side: the next statement of the
// connection's order, checked against its reference.
func (r *runner) read(c int, kinds *[numKinds][]float64) bool {
	idx := r.order[c][r.readPos[c]%len(r.order[c])]
	repeat := r.readPos[c] > 0 && r.order[c][(r.readPos[c]-1)%len(r.order[c])] == idx
	r.readPos[c]++
	t0 := time.Now()
	status, body, err := r.rconns[c].do(http.MethodGet, r.urls[c][idx], nil, nil)
	ok := err == nil && status == http.StatusOK && bodyHash(body) == r.refs[idx]
	if !ok {
		r.mu.Lock()
		r.m.note("read %q: status %d err %v, %d bytes: %.300s", r.pool[idx].text, status, err, len(body), body)
		r.mu.Unlock()
	}
	if kinds != nil {
		r.mu.Lock()
		k := r.pool[idx].kind
		kinds[k] = append(kinds[k], ms(time.Since(t0)))
		if k != kindMeta {
			r.m.selects++
			if repeat {
				r.m.repeats++
			}
		}
		r.mu.Unlock()
	}
	return ok
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// withCPU runs a closed loop while sampling the servers' CPU time every
// rateWindow, and returns the loop's phase with the CPU seconds spent
// per request completed in each of its whole windows.
func (r *runner) withCPU(run func() phase) (phase, []float64) {
	stop := make(chan struct{})
	var cpu []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		cpu = append(cpu, r.st.cpuSeconds())
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cpu = append(cpu, r.st.cpuSeconds())
			}
		}
	}()
	p := run()
	close(stop)
	wg.Wait()
	var per []float64
	for w := 0; w < len(p.windows) && w+1 < len(cpu); w++ {
		if p.windows[w] > 0 {
			per = append(per, (cpu[w+1]-cpu[w])/p.windows[w])
		}
	}
	return p, per
}

// closedWrites runs the write side closed-loop on `clients` connections.
func (r *runner) closedWrites(clients int, dur time.Duration) phase {
	w := r.newWriter()
	p := closedLoop(clients, dur, func(c, k int) bool { return w.op(c, k*clients+c) })
	w.fold()
	return p
}

func (r *runner) openWrites(conns int, dur time.Duration) phase {
	w := r.newWriter()
	p := openLoop(conns, r.g.writeRate, dur, w.op)
	w.fold()
	return p
}

// measure runs the warm-up and then the measured time in `rounds` equal
// rounds, each holding a slice of every phase. The host's speed wanders
// over seconds; a metric whose samples are spread over the whole run
// reads the run's middle, where one whose samples sit in a single block
// would read whatever that block met.
func (r *runner) measure(seconds float64) {
	m := r.m
	s := r.g.spec
	warm := secs(seconds * warmupShare)
	round := seconds * (1 - warmupShare) / rounds
	readOp := func(kinds *[numKinds][]float64) func(c, _ int) bool {
		return func(c, _ int) bool { return r.read(c, kinds) }
	}

	if s.concurrent {
		// Both sides at once, half the connections each. The two sides share
		// the servers, so each is charged the whole CPU of the mix: per
		// write and per query of it.
		both := func(write, read func() phase) (wp, qp phase) {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); wp = write() }()
			go func() { defer wg.Done(); qp = read() }()
			wg.Wait()
			return wp, qp
		}
		closedFor := func(dur time.Duration, kinds *[numKinds][]float64) (wp, qp phase) {
			return both(
				func() phase { return r.closedWrites(clients/2, dur) },
				func() phase { return closedLoop(clients/2, dur, readOp(kinds)) })
		}
		closedFor(warm, nil)
		for i := 0; i < rounds; i++ {
			var qp phase
			wp, per := r.withCPU(func() (wp phase) {
				wp, qp = closedFor(secs(round*closedShare), &m.kindMS)
				return wp
			})
			m.wClosed.add(wp)
			m.cpuW = append(m.cpuW, per...)
			m.qClosed.add(qp)
			dur := secs(round * (1 - closedShare))
			wo, qo := both(
				func() phase { return r.openWrites(clients/2, dur) },
				func() phase { return openLoop(clients/2, s.queryRate, dur, readOp(&m.kindMS)) })
			m.wOpen.add(wo)
			m.qOpen.add(qo)
		}
		// One CPU reading covers both sides: a query's share of it is the
		// writes' figure scaled by how many of each completed.
		perQuery := float64(m.wClosed.n-m.wClosed.failed) / float64(max(m.qClosed.n-m.qClosed.failed, 1))
		for _, c := range m.cpuW {
			m.cpuQ = append(m.cpuQ, c*perQuery)
		}
		return
	}

	r.closedWrites(clients, warm/2)
	closedLoop(clients, warm/2, readOp(nil))
	for i := 0; i < rounds; i++ {
		wt, qt := round*s.writeShare, round*(1-s.writeShare)
		p, per := r.withCPU(func() phase { return r.closedWrites(clients, secs(wt*closedShare)) })
		m.wClosed.add(p)
		m.cpuW = append(m.cpuW, per...)
		m.wOpen.add(r.openWrites(clients, secs(wt*(1-closedShare))))
		p, per = r.withCPU(func() phase { return closedLoop(clients, secs(qt*closedShare), readOp(&m.kindMS)) })
		m.qClosed.add(p)
		m.cpuQ = append(m.cpuQ, per...)
		m.qOpen.add(openLoop(clients, s.queryRate, secs(qt*(1-closedShare)), readOp(&m.kindMS)))
	}
}

// inputs is everything generated from (workload, seed) before a server
// starts: the set-up traffic, the read pool and its reference answers.
type inputs struct {
	g       *gen
	bodies  [][]byte
	history summary
	pool    []statement
	refs    []uint64
}

func newInputs(s spec, seed int64) (*inputs, error) {
	in := &inputs{g: newGen(s, seed)}
	in.bodies, in.history = in.g.preloadBodies()
	in.pool = in.g.statements()
	var err error
	in.refs, err = reference(in.g, in.bodies, in.pool)
	return in, err
}

// runEndToEnd performs one run on child processes. setups is how many
// times the stack is set up (the last one is measured), crashes how many
// SIGKILL/restart cycles follow the measured phases.
func runEndToEnd(e *env, in *inputs, seconds float64, setups, crashes int) (*measurements, error) {
	g := in.g
	m := &measurements{}
	var st *stack
	var err error
	for i := 0; i < setups; i++ {
		if st != nil {
			st.destroy()
		}
		t0 := time.Now()
		st, err = e.startStack(g.spec)
		if err != nil {
			return nil, err
		}
		if err := prepare(g, st, in.bodies); err != nil {
			st.destroy()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	defer st.destroy()
	if !st.fixedPorts {
		m.note("ports %d.. were taken: the ring places measurements differently from other runs", basePort)
	}

	r := newRunner(in, st, m)
	defer r.close()
	dbBefore, err := scrapeEach(st.nodes)
	if err != nil {
		return nil, err
	}
	routerBefore, err := scrape(st.router)
	if err != nil {
		return nil, err
	}
	own0, t0 := ownCPUSeconds(), time.Now()
	r.measure(seconds)
	m.ownCPU, m.wallS = ownCPUSeconds()-own0, time.Since(t0).Seconds()

	if err := r.finish(dbBefore, routerBefore); err != nil {
		return nil, err
	}
	if err := r.crashAndCheck(crashes); err != nil {
		return nil, err
	}
	m.rssMB = st.rssMB()
	st.stopGraceful()
	if m.diskBytes, err = st.diskBytes(); err != nil {
		return nil, err
	}
	return m, nil
}

// finish runs the oracle on the live stack and reads the end-of-run
// gauges.
func (r *runner) finish(dbBefore []samples, routerBefore samples) error {
	m := r.m
	c := r.rconns[0]
	for _, p := range []phase{m.wClosed, m.wOpen, m.qClosed, m.qOpen} {
		m.checks += p.n
		m.failed += p.failed
	}
	if len(r.st.nodes) > 1 {
		m.hintsPending = checkHintsDrained(r.st.router, &m.verdict)
	}
	checkModel(c, r.st.nodes, r.g.schema, r.model, &m.verdict)
	if d := r.g.compressAfter; d > 0 {
		// Let the background compactor finish with what the run sealed,
		// so the resident and on-disk sizes are those of the settled
		// state and not of the instant the last write happened to end.
		time.Sleep(d + time.Second)
	}
	dbAfter, err := scrapeEach(r.st.nodes)
	if err != nil {
		return err
	}
	routerAfter, err := scrape(r.st.router)
	if err != nil {
		return err
	}
	m.dbDelta, m.routerDelta = samples{}, routerAfter.delta(routerBefore)
	for i := range dbAfter {
		d := dbAfter[i].delta(dbBefore[i])
		if c := d.sum("lms_checkpoints_total", ""); i == 0 || c < m.minCheckpoints {
			m.minCheckpoints = c
		}
		for k, v := range d {
			m.dbDelta[k] += v
		}
		m.residentBytes += dbAfter[i].sum("lms_db_resident_bytes", "")
		m.compressedBytes += dbAfter[i].sum("lms_db_resident_bytes", `state="compressed"`)
	}
	return nil
}

// crashAndCheck SIGKILLs every lms-db, restarts them on their data
// directories and times how long until every door gives the pre-crash
// answer; then the oracle runs again on what was recovered.
func (r *runner) crashAndCheck(crashes int) error {
	m := r.m
	c := r.rconns[0]
	var v verdict
	want := checkModel(c, r.st.nodes, r.g.schema, r.model, &v)
	if want == nil {
		return fmt.Errorf("no oracle answer to compare the recovery with")
	}
	want = bytes.Clone(want)
	// Every crash replays the same WAL tail (nothing is written in
	// between), so the repeats time one thing.
	var times []float64
	for i := 0; i < crashes; i++ {
		t0 := time.Now()
		if err := r.st.crashRestart(); err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if err := awaitRecovery(c, r.st.nodes, r.g.schema, want); err != nil {
			m.fail("%v", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	m.recoveryS = median(times)
	m.crashes = len(times)
	checkModel(c, r.st.nodes, r.g.schema, r.model, &m.verdict)
	// A sample of the read pool must still match its references: the
	// writes of the run lie outside every pooled window.
	sample := min(64, len(r.pool))
	checkReads(c, r.st.nodes[0], r.pool[:sample], r.refs[:sample], &m.verdict)
	return nil
}
