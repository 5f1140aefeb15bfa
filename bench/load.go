package main

// The load generator: HTTP connections, the closed and the open loop,
// and the order statistics reported from them.

import (
	"bytes"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a request that fails or times out
// is accounted at this latency, so it misses every limit.
const requestTimeout = 15 * time.Second

// conn is one client connection: a transport capped at a single socket
// and a reusable read buffer. A conn is used by one goroutine at a time.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole reply into the conn's buffer,
// which stays valid until the next call.
func (c *conn) do(method, u string, body []byte, header http.Header) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func writeURL(base string) string { return base + "/write?db=" + database }

func queryURL(base string, st statement) string {
	v := url.Values{"db": {database}, "q": {st.text}}
	if st.epoch != "" {
		v.Set("epoch", st.epoch)
	}
	return base + "/query?" + v.Encode()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyHash identifies a reply body: its CRC-32C and its length.
func bodyHash(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(uint32(len(b)))
}

// phase is what one loop measured.
type phase struct {
	n, failed int
	wall      time.Duration
	latMS     []float64 // per request; open loop: from the due time
	lateMS    []float64 // open loop: how long after its due time a request was sent
	windows   []float64 // closed loop: successful requests completed in each whole rateWindow
}

// add appends what a later loop of the same kind measured.
func (p *phase) add(o phase) {
	p.n += o.n
	p.failed += o.failed
	p.wall += o.wall
	p.latMS = append(p.latMS, o.latMS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	p.windows = append(p.windows, o.windows...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record accounts one request. A failed request counts at the timeout.
func (p *phase) record(ok bool, lat, late time.Duration) {
	p.n++
	if !ok {
		p.failed++
		lat = requestTimeout
	}
	p.latMS = append(p.latMS, ms(lat))
	p.lateMS = append(p.lateMS, ms(late))
}

// closedLoop runs `clients` callers for dur: each sends its next request
// when the reply to the previous one has arrived. op(client, k) performs
// the client's k-th request and reports whether it succeeded.
func closedLoop(clients int, dur time.Duration, op func(client, k int) bool) phase {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]phase, clients)
	done := make([][]time.Duration, clients) // when each successful request completed, from the start
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				ok := op(c, k)
				end := time.Now()
				parts[c].record(ok, end.Sub(t0), 0)
				if ok {
					done[c] = append(done[c], end.Sub(start))
				}
			}
		}(c)
	}
	wg.Wait()
	var total phase
	for _, p := range parts {
		total.add(p)
	}
	total.wall = time.Since(start)
	total.windows = windowCounts(total.wall, done...)
	return total
}

// windowCounts is the number of completions in each whole rateWindow of
// a loop that ran for wall.
func windowCounts(wall time.Duration, done ...[]time.Duration) []float64 {
	counts := make([]float64, int(wall/rateWindow))
	for _, ds := range done {
		for _, d := range ds {
			if w := int(d / rateWindow); w < len(counts) {
				counts[w]++
			}
		}
	}
	return counts
}

// openLoop issues request i at start + i/rate whatever the replies do,
// over `conns` connections. Latency runs from the instant the request
// was due, so a stall charges every request it delayed, and lateMS says
// how far behind its schedule the generator sent. op(conn, i) performs
// request i on connection conn.
func openLoop(conns int, rate float64, dur time.Duration, op func(conn, i int) bool) phase {
	start := time.Now()
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ok := op(c, i)
				parts[c].record(ok, time.Since(due), sent.Sub(due))
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for _, p := range parts {
		out.add(p)
	}
	out.wall = time.Since(start)
	return out
}

// rateWindow is the slice of a closed phase one throughput sample covers.
const rateWindow = 250 * time.Millisecond

// ratePerS is the throughput of a closed phase: successful requests per
// second in each whole rateWindow of the phase, and of those the
// midmean, so a stall (a collection, a checkpoint, a neighbour on the
// host) costs the samples it hit, not a share of the result.
func (p phase) ratePerS() float64 {
	if len(p.windows) == 0 {
		return float64(p.n-p.failed) / p.wall.Seconds()
	}
	return midmean(p.windows) / rateWindow.Seconds()
}

// midmean is the mean of the middle half of vals (the interquartile
// mean): as deaf to outlying windows as the median, but averaging over
// half the samples where the median reads one, which matters when a
// phase has ten windows of a few dozen requests each.
func midmean(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	lo, hi := len(s)/4, len(s)-len(s)/4
	total := 0.0
	for _, v := range s[lo:hi] {
		total += v
	}
	return total / float64(hi-lo)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals, which it sorts in place; NaN if there are none.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	return vals[max(rank, 1)-1]
}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, the highest a sample of n supports.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, permille := range []int{900, 950, 990, 999} {
		rank := (n*permille + 999) / 1000 // nearest rank, in whole numbers
		if n-rank >= 10 {
			best = float64(permille) / 10
		}
	}
	return best
}
