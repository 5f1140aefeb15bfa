// Package tests holds the chaos/soak harness of the LMS stack (DESIGN.md
// §10): a real lms-db HTTP server (durable store, per-batch fsync) fronted
// by a real router, hammered by concurrent writers and queriers while the
// database is restarted underneath them. The harness tracks every
// acknowledged batch and asserts after the final recovery that no acked
// point was lost, the run never deadlocked, and the /metrics documents of
// both components are consistent with the harness's own oracle counts.
//
// The default (short) run is a few seconds so it rides along in CI under
// -race; LMS_CHAOS_LONG=1 switches to the soak configuration used by the
// scheduled chaos-long workflow job.
package tests

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

// chaosParams scale the run: short mode is a CI smoke, long mode a soak.
type chaosParams struct {
	writers  int
	batch    int           // points per write
	duration time.Duration // writer runtime
	restarts int           // db restarts during the run
	restGap  time.Duration // pause between restarts
	queriers int
	queryGap time.Duration
}

func params() chaosParams {
	if os.Getenv("LMS_CHAOS_LONG") == "1" {
		return chaosParams{
			writers: 8, batch: 20, duration: 60 * time.Second,
			restarts: 10, restGap: 4 * time.Second,
			queriers: 4, queryGap: 50 * time.Millisecond,
		}
	}
	return chaosParams{
		writers: 4, batch: 5, duration: 1500 * time.Millisecond,
		restarts: 2, restGap: 400 * time.Millisecond,
		queriers: 2, queryGap: 20 * time.Millisecond,
	}
}

// dbServer is one lms-db incarnation: a durable store served over HTTP on
// a fixed address, so a restarted incarnation is reachable under the same
// base URL.
type dbServer struct {
	store *tsdb.Store
	srv   *http.Server
	addr  string
}

func startDB(t *testing.T, dir, addr string) *dbServer {
	t.Helper()
	store, err := tsdb.OpenStore(tsdb.StoreOptions{
		Durability: tsdb.Durability{Dir: dir, Fsync: durable.FsyncPerBatch},
	})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// The previous incarnation's listener may take a moment to fully
	// release the port; retry briefly instead of failing the run.
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 50 {
			_ = store.Close()
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	h := tsdb.NewHandler(store)
	s := &dbServer{
		store: store,
		srv:   &http.Server{Handler: h},
		addr:  ln.Addr().String(),
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s
}

// stop shuts the incarnation down the way lms-db does on SIGTERM:
// in-flight requests finish, then the store flushes and checkpoints.
func (s *dbServer) stop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		t.Fatalf("db shutdown: %v", err)
	}
	if err := s.store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
}

// metricValue extracts one unlabeled sample from a Prometheus text
// document; ok=false when the metric is absent.
func metricValue(doc, name string) (float64, bool) {
	for _, line := range strings.Split(doc, "\n") {
		if rest, found := strings.CutPrefix(line, name+" "); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", base, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosRestartNoAckedPointLost is the core chaos run: writers push
// sequenced batches through the router into a durable lms-db that is
// killed and restarted repeatedly; queriers read concurrently. Every
// batch acknowledged with 2xx must be fully present after final recovery.
func TestChaosRestartNoAckedPointLost(t *testing.T) {
	p := params()
	dir := t.TempDir()

	db := startDB(t, dir, "")
	dbAddr := db.addr
	dbURL := "http://" + dbAddr

	rt, err := router.New(router.Config{
		Primary: &tsdb.Client{BaseURL: dbURL, Database: "lms", HTTPClient: &http.Client{Timeout: 5 * time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// acked[w] is the number of batches writer w got a 2xx for; each
	// acked batch b covers seqs [b*batch, (b+1)*batch).
	acked := make([]int, p.writers)
	base := time.Unix(1_700_000_000, 0).UTC()
	for w := 0; w < p.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &tsdb.Client{BaseURL: rtSrv.URL, Database: "lms", HTTPClient: &http.Client{Timeout: 5 * time.Second}}
			for batchNo := 0; ; batchNo++ {
				pts := make([]lineproto.Point, p.batch)
				for i := range pts {
					seq := batchNo*p.batch + i
					pts[i] = lineproto.Point{
						Measurement: "chaos",
						Tags:        map[string]string{"writer": fmt.Sprintf("w%d", w)},
						Fields:      map[string]lineproto.Value{"seq": lineproto.Int(int64(seq))},
						Time:        base.Add(time.Duration(seq) * time.Millisecond),
					}
				}
				// Retry the same batch until acked — an un-acked batch may
				// be retried across a restart without harm because the seq
				// timestamps make the write idempotent per series.
				for {
					if err := c.WritePoints(pts); err == nil {
						acked[w] = batchNo + 1
						break
					}
					select {
					case <-stop:
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}

	// Queriers read through the db's HTTP API while it restarts; errors
	// are expected mid-restart, hangs and panics are not.
	for q := 0; q < p.queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &tsdb.Client{BaseURL: dbURL, Database: "lms", MaxRetries: -1, HTTPClient: &http.Client{Timeout: 5 * time.Second}}
			for {
				select {
				case <-stop:
					return
				case <-time.After(p.queryGap):
				}
				_, _ = c.Query(context.Background(), tsdb.Request{RawQuery: "SELECT count(seq) FROM chaos"})
			}
		}()
	}

	// Restart schedule: kill and rebind the database under load.
	deadline := time.After(p.duration)
	for r := 0; r < p.restarts; r++ {
		select {
		case <-deadline:
		case <-time.After(p.restGap):
		}
		db.stop(t)
		db = startDB(t, dir, dbAddr)
	}
	<-deadline
	close(stop)
	wg.Wait()

	// Scrape the live incarnation before stopping it, then recover once
	// more from disk for the oracle check.
	dbMetrics := scrape(t, dbURL)
	rtMetrics := scrape(t, rtSrv.URL)
	db.stop(t)

	store, err := tsdb.OpenStore(tsdb.StoreOptions{
		Durability: tsdb.Durability{Dir: dir, Fsync: durable.FsyncPerBatch},
	})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer store.Close()
	fdb := store.DB("lms")
	if fdb == nil {
		t.Fatal("database lms not recovered")
	}
	series, err := fdb.SelectContext(context.Background(), tsdb.Query{
		Measurement: "chaos",
		Cols:        []tsdb.AggCol{{Field: "seq"}},
		GroupByTags: []string{"writer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[int64]bool{} // writer -> set of recovered seqs
	stored := 0
	for _, s := range series {
		w := s.Tags["writer"]
		if got[w] == nil {
			got[w] = map[int64]bool{}
		}
		for _, row := range s.Rows {
			for _, v := range row.Values {
				if v != nil {
					got[w][v.IntVal()] = true
					stored++
				}
			}
		}
	}
	ackedPoints := 0
	for w := 0; w < p.writers; w++ {
		name := fmt.Sprintf("w%d", w)
		ackedPoints += acked[w] * p.batch
		for seq := 0; seq < acked[w]*p.batch; seq++ {
			if !got[name][int64(seq)] {
				t.Errorf("writer %s: acked seq %d lost after recovery", name, seq)
			}
		}
	}
	if ackedPoints == 0 {
		t.Fatal("no batch was ever acked; the harness exercised nothing")
	}
	if stored < ackedPoints {
		t.Errorf("stored %d points < %d acked", stored, ackedPoints)
	}
	t.Logf("chaos: %d writers, %d restarts, %d acked points, %d stored",
		p.writers, p.restarts, ackedPoints, stored)

	// Metrics vs oracle. The scraped incarnation only saw writes since the
	// last restart, so its ingest counter is a lower-bound check; the
	// router lived through the whole run, so its counters must balance
	// exactly: every received point was either forwarded or dropped.
	if v, ok := metricValue(dbMetrics, "lms_ingest_points_total"); !ok || v < 0 {
		t.Errorf("db /metrics missing lms_ingest_points_total (ok=%v v=%v)", ok, v)
	}
	recv, ok1 := metricValue(rtMetrics, "lms_router_received_points_total")
	fwd, ok2 := metricValue(rtMetrics, "lms_router_forwarded_points_total")
	drop, ok3 := metricValue(rtMetrics, "lms_router_dropped_points_total")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("router /metrics incomplete:\n%s", rtMetrics)
	}
	if recv != fwd+drop {
		t.Errorf("router pipeline unbalanced: received %v != forwarded %v + dropped %v", recv, fwd, drop)
	}
	if fwd < float64(ackedPoints) {
		t.Errorf("router forwarded %v < %d acked points", fwd, ackedPoints)
	}
	rs, fs, ds := rt.Stats()
	if recv != float64(rs) || fwd != float64(fs) || drop != float64(ds) {
		t.Errorf("router /metrics (%v, %v, %v) disagrees with Stats (%d, %d, %d)",
			recv, fwd, drop, rs, fs, ds)
	}
}

// TestChaosOverloadSheds drives a writer burst into a db whose admission
// gate admits one request at a time and asserts overload is shed with 429
// (visible on /metrics) while admitted writes keep succeeding — the
// bounded-memory overload behavior, end to end.
func TestChaosOverloadSheds(t *testing.T) {
	store := tsdb.NewStore()
	h := tsdb.NewHandler(store)
	h.SetAdmission(1, 0)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	var oks, sheds, other int
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := strings.NewReader(fmt.Sprintf("burst value=%d %d\n", i, int64(i+1)*1e9))
			resp, err := http.Post(srv.URL+"/write?db=lms", "text/plain", body)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusNoContent:
				oks++
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				sheds++
			default:
				other++
			}
		}(i)
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("unexpected statuses: %d", other)
	}
	if oks == 0 {
		t.Fatal("no write admitted under overload")
	}
	doc := scrape(t, srv.URL)
	shedMetric, ok := metricValue(doc, "lms_http_requests_shed_total")
	if !ok || int(shedMetric) != sheds {
		t.Fatalf("lms_http_requests_shed_total = %v (ok=%v), harness counted %d", shedMetric, ok, sheds)
	}
	ingest, _ := metricValue(doc, "lms_ingest_points_total")
	if int(ingest) != oks {
		t.Fatalf("lms_ingest_points_total = %v, harness acked %d", ingest, oks)
	}
}
