package cluster

// The 3-node in-process harness (ISSUE 8 acceptance): three real lms-db
// handlers behind httptest servers, each with its own store and its own
// cluster view, plus a coordinator standing in for the router. The suite
// pins the cluster's core invariant — scatter-gather answers are
// byte-identical to a single-node store over the same corpus, with every
// replica up AND with one replica down mid-query — and the hinted-handoff
// guarantee that no acknowledged point is lost across a peer outage.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

func testPoints(m, host string, n int) []lineproto.Point {
	base := time.Unix(2000, 0).UTC()
	pts := make([]lineproto.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, lineproto.NewPoint(
			m,
			map[string]string{"hostname": host},
			map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
			base.Add(time.Duration(i)*time.Second),
		))
	}
	return pts
}

// corpusBatches mirrors the tsdb equivalence corpus (querier_test.go):
// several measurements and tag sets, floats, int64s beyond 2^53, bools,
// sparse and mixed-kind columns, and an out-of-order batch.
func corpusBatches() [][]lineproto.Point {
	base := time.Unix(1000, 0).UTC()
	var pts []lineproto.Point
	for i := 0; i < 50; i++ {
		ts := base.Add(time.Duration(i) * time.Second)
		for _, host := range []string{"h1", "h2"} {
			fields := map[string]lineproto.Value{
				"value": lineproto.Float(float64(i%7) + 0.25),
				"ticks": lineproto.Int(9007199254740993 + int64(i)), // > 2^53
				"busy":  lineproto.Bool(i%2 == 0),
			}
			if i%13 == 0 {
				fields["note"] = lineproto.String(fmt.Sprintf("mark-%d", i))
			}
			if i%5 == 0 {
				if i%2 == 0 {
					fields["mode"] = lineproto.Float(float64(i))
				} else {
					fields["mode"] = lineproto.String("burst")
				}
			}
			pts = append(pts,
				lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": host, "jobid": "42"},
					fields,
					ts,
				),
				lineproto.NewPoint(
					"likwid_mem_dp",
					map[string]string{"hostname": host},
					map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(2000 + float64(i))},
					ts,
				))
		}
	}
	pts = append(pts, lineproto.NewPoint(
		"events",
		map[string]string{"jobid": "42"},
		map[string]lineproto.Value{"text": lineproto.String("jobstart")},
		base,
	))
	outOfOrder := []lineproto.Point{lineproto.NewPoint(
		"cpu",
		map[string]string{"hostname": "h1", "jobid": "42"},
		map[string]lineproto.Value{"value": lineproto.Float(99)},
		base.Add(-10*time.Second),
	)}
	return [][]lineproto.Point{pts, outOfOrder}
}

// clusterEquivalenceStatements matches the tsdb equivalence suite: raw
// selects, aggregation, windowing, grouping, limits, percentiles, ghost
// measurements, metadata statements and a multi-statement script.
var clusterEquivalenceStatements = []string{
	"SELECT * FROM cpu",
	"SELECT value FROM cpu",
	"SELECT value FROM cpu WHERE hostname = 'h1' LIMIT 3",
	"SELECT ticks FROM cpu LIMIT 5",
	"SELECT mean(value) FROM cpu GROUP BY time(10s), hostname",
	"SELECT max(value) FROM cpu GROUP BY hostname",
	"SELECT count(value) FROM cpu WHERE time >= 1005000000000 AND time <= 1030000000000",
	"SELECT percentile(value, 90) FROM cpu",
	"SELECT note FROM cpu",
	"SELECT note, mode FROM cpu WHERE hostname = 'h2'",
	"SELECT count(note) FROM cpu GROUP BY time(15s)",
	"SELECT last(mode) FROM cpu GROUP BY hostname",
	"SELECT sum(dp_mflop_s) FROM likwid_mem_dp GROUP BY time(20s)",
	"SELECT text FROM events WHERE jobid = '42'",
	"SELECT value FROM ghost_measurement",
	"SHOW DATABASES",
	"SHOW MEASUREMENTS",
	"SHOW FIELD KEYS FROM cpu",
	"SHOW TAG KEYS FROM cpu",
	"SHOW TAG VALUES FROM cpu WITH KEY = hostname",
	"SHOW TAG VALUES WITH KEY = jobid",
	"SHOW MEASUREMENTS; SELECT mean(value) FROM cpu GROUP BY hostname",
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testNode is one cluster member: a real store behind a real handler,
// with a kill switch that answers 503 while "down" — the view a peer has
// of a dead node once TCP gives up.
type testNode struct {
	store   *tsdb.Store
	handler *tsdb.Handler
	srv     *httptest.Server
	down    atomic.Bool
	// old makes the node answer a frame the way an lms-db from before the
	// frame door does: it parses the body as line protocol and says 400.
	old atomic.Bool
	// refuse makes the node answer every /query with a statement error,
	// the way a reached node reports a CREATE whose durable open failed.
	refuse atomic.Bool
	// holdCreate holds every CREATE DATABASE sent to the node until its
	// sender gives up: a database reaches the node only by a write.
	holdCreate atomic.Bool
}

type harness struct {
	peers  []string
	nodes  map[string]*testNode
	oracle *tsdb.Store // the single-node store every answer is compared to
	coord  *Cluster    // the router's view: coordinator without a ring slice
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{nodes: map[string]*testNode{}, oracle: tsdb.NewStore()}
	short := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 3; i++ {
		tn := &testNode{store: tsdb.NewStore()}
		tn.handler = tsdb.NewHandler(tn.store)
		wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Nothing but coordinators writes to a harness node, live or
			// replaying a hint: every write is a batch frame marked local.
			if r.URL.Path == "/write" && (r.Header.Get("Content-Type") != tsdb.BatchContentType || r.URL.Query().Get("local") != "1") {
				t.Errorf("peer write is not a local=1 batch frame: %s Content-Type %q", r.URL, r.Header.Get("Content-Type"))
			}
			if tn.down.Load() {
				http.Error(w, "node down", http.StatusServiceUnavailable)
				return
			}
			if tn.holdCreate.Load() && r.URL.Path == "/query" && strings.HasPrefix(r.FormValue("q"), "CREATE DATABASE") {
				<-r.Context().Done()
				return
			}
			if tn.refuse.Load() && r.URL.Path == "/query" {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"results":[{"error":"durable open failed"}]}`)
				return
			}
			if tn.old.Load() && r.URL.Path == "/write" {
				http.Error(w, `{"error":"lineproto: line 1: missing field section"}`, http.StatusBadRequest)
				return
			}
			tn.handler.ServeHTTP(w, r)
		})
		tn.srv = httptest.NewServer(wrapped)
		t.Cleanup(tn.srv.Close)
		h.peers = append(h.peers, tn.srv.URL)
		h.nodes[tn.srv.URL] = tn
	}
	for url, tn := range h.nodes {
		c, err := New(Config{
			Peers:       h.peers,
			Self:        url,
			SelfStore:   tn.store,
			Replication: cfg.Replication,
			HTTPClient:  short,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		tn.handler.Distributed = c.Querier()
	}
	ccfg := cfg
	ccfg.Peers = h.peers
	ccfg.HTTPClient = short
	if ccfg.DrainInterval == 0 {
		ccfg.DrainInterval = 10 * time.Millisecond
	}
	coord, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	h.coord = coord
	return h
}

// seed writes the corpus through the replicated sink and, identically,
// into the single-node oracle.
func (h *harness) seed(t *testing.T) {
	t.Helper()
	db := h.oracle.CreateDatabase("lms")
	sink := h.coord.SinkFor("lms")
	for _, batch := range corpusBatches() {
		if err := db.WriteBatchContext(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	for _, batch := range corpusBatches() {
		if err := sink.WritePoints(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// checkEquivalence holds every door into the cluster — the coordinator's
// querier and each live node's coordinated /query — to byte-identical
// JSON against the single-node oracle, across epochs and chunking.
func (h *harness) checkEquivalence(t *testing.T, label string) {
	t.Helper()
	ctx := context.Background()
	oracle := tsdb.LocalQuerier{Store: h.oracle}
	type door struct {
		name string
		qr   tsdb.Querier
	}
	doors := []door{{"coordinator", h.coord.Querier()}}
	for _, url := range h.peers {
		if tn := h.nodes[url]; !tn.down.Load() {
			doors = append(doors, door{"node " + url, &tsdb.Client{BaseURL: url, Database: "lms"}})
		}
	}
	for _, epoch := range []string{"", "ns", "s"} {
		for _, chunked := range []bool{false, true} {
			for _, qtext := range clusterEquivalenceStatements {
				req := tsdb.Request{Database: "lms", RawQuery: qtext, Epoch: epoch, Chunked: chunked}
				want, err := oracle.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON := mustJSON(t, want)
				for _, d := range doors {
					got, err := d.qr.Query(ctx, req)
					if err != nil {
						t.Fatalf("%s: %s: %q (epoch=%q chunked=%v): %v", label, d.name, qtext, epoch, chunked, err)
					}
					if gotJSON := mustJSON(t, got); gotJSON != wantJSON {
						t.Fatalf("%s: %s: %q (epoch=%q chunked=%v) diverged:\n cluster: %s\n oracle:  %s",
							label, d.name, qtext, epoch, chunked, gotJSON, wantJSON)
					}
				}
			}
		}
	}
}

// TestClusterEquivalenceAndReplicaDown is acceptance (a)+(b): byte-
// identical answers over the corpus, then again with one replica killed.
func TestClusterEquivalenceAndReplicaDown(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	h.checkEquivalence(t, "healthy")

	// Kill the primary owner of cpu — the node a naive router would have
	// sent every cpu query to.
	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].down.Store(true)
	h.checkEquivalence(t, "replica down")
	if h.coord.readFailovers.Load() == 0 {
		t.Fatal("no read failovers recorded with a replica down")
	}

	h.nodes[victim].down.Store(false)
	h.checkEquivalence(t, "healed")
}

// TestClusterDropDatabaseNeedsEveryNode: CREATE DATABASE tolerates a dead
// peer, because the write path catches it up; DROP DATABASE does not,
// because nothing replays a drop — acknowledged with a replica down, the
// healed replica would serve the dropped data again. The DROP fails naming
// the node it missed (a 502 at /query), and its retry after the heal
// completes it.
func TestClusterDropDatabaseNeedsEveryNode(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	ctx := context.Background()
	exec := func(q string) (tsdb.ExecResult, error) {
		resp, err := h.coord.Querier().Query(ctx, tsdb.Request{Database: "lms", RawQuery: q})
		if err != nil {
			return tsdb.ExecResult{}, err
		}
		return resp.Results[0], nil
	}
	victim := h.coord.owners("lms", "cpu")[0]
	var live string
	for _, id := range h.peers {
		if id != victim {
			live = id
		}
	}

	h.nodes[victim].down.Store(true)
	if res, err := exec("CREATE DATABASE extra"); err != nil || res.Err != "" {
		t.Fatalf("CREATE with a peer down: %+v, %v", res, err)
	}

	h.nodes[live].refuse.Store(true)
	if res, err := exec("CREATE DATABASE extra"); err != nil || res.Err != "durable open failed" {
		t.Fatalf("CREATE refused by a reached peer: got %+v, %v; want its error", res, err)
	}
	h.nodes[live].refuse.Store(false)

	for _, id := range h.peers {
		h.nodes[id].down.Store(true)
	}
	if _, err := exec("CREATE DATABASE extra"); err == nil || !strings.Contains(err.Error(), "all 3 nodes failed") {
		t.Fatalf("CREATE with every peer down: %v", err)
	}
	for _, id := range h.peers {
		h.nodes[id].down.Store(id == victim)
	}

	_, err := exec("DROP DATABASE lms")
	if err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("DROP with %s down: %v; want an error naming it", victim, err)
	}
	resp, err := http.Get(live + "/query?" + url.Values{"q": {"DROP DATABASE lms"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("DROP at a node's /query with %s down: status %d, want 502", victim, resp.StatusCode)
	}

	h.nodes[victim].down.Store(false)
	if res, err := exec("DROP DATABASE lms"); err != nil || res.Err != "" {
		t.Fatalf("DROP retried after the heal: %+v, %v", res, err)
	}
	doors := map[string]tsdb.Querier{"coordinator": h.coord.Querier()}
	for _, id := range h.peers {
		doors["node "+id] = &tsdb.Client{BaseURL: id, Database: "lms"}
		doors["node "+id+" local"] = tsdb.LocalQuerier{Store: h.nodes[id].store}
	}
	notFound := mustJSON(t, tsdb.Response{Results: []tsdb.ExecResult{{Err: tsdb.ErrNoDatabase.Error()}}})
	for name, qr := range doors {
		resp, err := qr.Query(ctx, tsdb.Request{Database: "lms", RawQuery: "SELECT count(*) FROM cpu"})
		if err != nil || mustJSON(t, resp) != notFound {
			t.Fatalf("%s: SELECT after the DROP: %+v, %v; want %s", name, resp, err, notFound)
		}
		resp, err = qr.Query(ctx, tsdb.Request{RawQuery: "SHOW DATABASES"})
		if err != nil || strings.Contains(mustJSON(t, resp), `"lms"`) {
			t.Fatalf("%s: SHOW DATABASES after the DROP: %+v, %v", name, resp, err)
		}
	}
}

// matchOracle asks every door — the coordinator and each node's /query —
// for qtext in db and holds each answer to the single-node oracle's JSON.
func (h *harness) matchOracle(t *testing.T, label, db, qtext string) {
	t.Helper()
	ctx := context.Background()
	req := tsdb.Request{Database: db, RawQuery: qtext}
	want, err := tsdb.LocalQuerier{Store: h.oracle}.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	doors := map[string]tsdb.Querier{"coordinator": h.coord.Querier()}
	for _, id := range h.peers {
		doors["node "+id] = &tsdb.Client{BaseURL: id, Database: db}
	}
	for name, qr := range doors {
		got, err := qr.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: %s: %q in %q: %v", label, name, qtext, db, err)
		}
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("%s: %s: %q in %q diverged:\n cluster: %s\n oracle:  %s",
				label, name, qtext, db, mustJSON(t, got), mustJSON(t, want))
		}
	}
}

// ghostHarness is a ring with R=1, so a measurement nobody wrote can have
// one owner that never saw the database, and with CREATE DATABASE held at
// every node, so only writes place a database. It returns the harness and
// a measurement whose owner is not the owner of "cpu".
func ghostHarness(t *testing.T) (*harness, string) {
	t.Helper()
	h := newHarness(t, Config{Replication: 1, WriteQuorum: 1})
	for _, tn := range h.nodes {
		tn.holdCreate.Store(true)
	}
	written := h.coord.owners("lms", "cpu")[0]
	for i := 0; ; i++ {
		if ghost := fmt.Sprintf("ghost%d", i); h.coord.owners("lms", ghost)[0] != written {
			return h, ghost
		}
	}
}

// writeBoth writes pts through the replicated sink and into the oracle.
func (h *harness) writeBoth(t *testing.T, pts []lineproto.Point) {
	t.Helper()
	if err := h.oracle.CreateDatabase("lms").WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if err := h.coord.SinkFor("lms").WritePoints(pts); err != nil {
		t.Fatal(err)
	}
}

// TestClusterGhostReadAfterFirstWrite: right after a database's first
// write, a measurement nobody wrote answers at every door as a single node
// does — an empty SELECT, the empty SHOW shells — although its only owner
// never saw the database; the read routes past it to a node that holds
// it. A database no node holds still answers "database does not exist".
func TestClusterGhostReadAfterFirstWrite(t *testing.T) {
	h, ghost := ghostHarness(t)
	h.writeBoth(t, testPoints("cpu", "h1", 3))
	for _, q := range []string{
		"SELECT value FROM " + ghost,
		"SHOW FIELD KEYS FROM " + ghost,
		"SHOW TAG KEYS FROM " + ghost,
		"SELECT value FROM cpu",
	} {
		h.matchOracle(t, "first write", "lms", q)
		h.matchOracle(t, "no such database", "nowhere", q)
	}
	h.matchOracle(t, "no such database", "nowhere", "SHOW MEASUREMENTS")

	// The routing profile lists the owner's refusal and the node that
	// answered, and each extra hop counts as a read failover.
	before := h.coord.readFailovers.Load()
	resp, err := h.coord.Querier().Query(context.Background(),
		tsdb.Request{Database: "lms", RawQuery: "EXPLAIN ANALYZE SELECT value FROM " + ghost})
	if err != nil {
		t.Fatal(err)
	}
	profile := map[string]interface{}{}
	for _, s := range resp.Results[0].Series {
		if s.Name == tsdb.ExplainClusterSeriesName {
			for _, row := range s.Values {
				profile[row[0].(string)] = row[1]
			}
		}
	}
	owner := h.coord.owners("lms", ghost)[0]
	if profile["attempt_1_node"] != owner || profile["attempt_1_status"] != "no-database" {
		t.Fatalf("routing profile does not start at the owner %s lacking the database: %v", owner, profile)
	}
	n, _ := profile["attempts"].(int)
	if chosen := profile["chosen_replica"]; n < 2 || chosen == "" || chosen == owner {
		t.Fatalf("routing profile chose %v after %d attempts: %v", chosen, n, profile)
	}
	if got := h.coord.readFailovers.Load() - before; got != uint64(n-1) {
		t.Fatalf("%d read failovers counted for %d attempts", got, n)
	}
}

// TestClusterGhostReadPastDownOwner: on the R=2 ring, a measurement nobody
// wrote whose owners are one node holding the database and one that never
// saw it reads as a single node does although the owner holding it is
// down: the other owner's "does not exist" is not the answer while a
// member that holds the database is up. Where no reachable node holds the
// database, the down owner's error is the answer — it might hold it.
func TestClusterGhostReadPastDownOwner(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.writeBoth(t, testPoints("cpu", "h1", 3))
	cpuOwners := h.coord.owners("lms", "cpu")
	down := ""
	ghost := ""
	for i := 0; ghost == ""; i++ {
		g := fmt.Sprintf("ghost%d", i)
		if o := h.coord.owners("lms", g); slices.Contains(cpuOwners, o[0]) != slices.Contains(cpuOwners, o[1]) {
			ghost, down = g, o[0]
			if !slices.Contains(cpuOwners, down) {
				down = o[1]
			}
		}
	}
	h.nodes[down].down.Store(true)

	ctx := context.Background()
	req := tsdb.Request{Database: "lms", RawQuery: "SELECT value FROM " + ghost}
	want, err := tsdb.LocalQuerier{Store: h.oracle}.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.coord.Querier().Query(ctx, req)
	if err != nil {
		t.Fatalf("%q with owner %s down: %v", req.RawQuery, down, err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("%q with owner %s down:\n cluster: %s\n oracle:  %s", req.RawQuery, down, mustJSON(t, got), mustJSON(t, want))
	}

	// Every up node lacks "nowhere"; an owner is down, so the answer is its
	// error rather than "database does not exist".
	for i := 0; ; i++ {
		m := fmt.Sprintf("m%d", i)
		if !slices.Contains(h.coord.owners("nowhere", m), down) {
			continue
		}
		resp, err := h.coord.Querier().Query(ctx, tsdb.Request{Database: "nowhere", RawQuery: "SELECT value FROM " + m})
		if err == nil {
			t.Fatalf("a database no reachable node holds, with an owner down, answered %s", mustJSON(t, resp))
		}
		break
	}
}

// TestClusterGhostReadAfterDropAndRewrite: a database dropped and then
// re-created by writes answers a ghost measurement as a single node does;
// nothing in the cluster remembers where it was before the drop.
func TestClusterGhostReadAfterDropAndRewrite(t *testing.T) {
	h, ghost := ghostHarness(t)
	h.writeBoth(t, testPoints("cpu", "h1", 3))
	resp, err := h.coord.Querier().Query(context.Background(), tsdb.Request{RawQuery: "DROP DATABASE lms"})
	if err != nil || resp.Err() != nil {
		t.Fatalf("DROP DATABASE: %+v, %v", resp, err)
	}
	h.oracle.DropDatabase("lms")
	h.matchOracle(t, "dropped", "lms", "SELECT value FROM "+ghost)

	h.writeBoth(t, testPoints("cpu", "h2", 3))
	for _, q := range []string{
		"SELECT value FROM " + ghost,
		"SHOW FIELD KEYS FROM " + ghost,
		"SHOW TAG KEYS FROM " + ghost,
		"SELECT value FROM cpu",
	} {
		h.matchOracle(t, "re-created", "lms", q)
	}
}

// TestClusterHintedHandoffDrains is acceptance (c): writes acknowledged
// during a replica outage reach the healed replica through the durable
// hint queue, with no acknowledged point lost.
func TestClusterHintedHandoffDrains(t *testing.T) {
	h := newHarness(t, Config{
		Replication: 2,
		WriteQuorum: 1,
		HintsDir:    t.TempDir(),
	})
	h.seed(t)

	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].down.Store(true)

	// Writes during the outage: every one must still acknowledge (W=1 and
	// the second replica is up) and land in the oracle.
	db := h.oracle.DB("lms")
	sink := h.coord.SinkFor("lms")
	base := time.Unix(1100, 0).UTC()
	for i := 0; i < 5; i++ {
		batch := []lineproto.Point{
			lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": "h1", "jobid": "42"},
				map[string]lineproto.Value{"value": lineproto.Float(1000 + float64(i))},
				base.Add(time.Duration(i)*time.Second),
			),
			lineproto.NewPoint(
				"likwid_mem_dp",
				map[string]string{"hostname": "h2"},
				map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(3000 + float64(i))},
				base.Add(time.Duration(i)*time.Second),
			),
		}
		if err := db.WriteBatchContext(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := sink.WritePoints(batch); err != nil {
			t.Fatalf("write during outage not acknowledged: %v", err)
		}
	}
	if h.coord.PendingHints() == 0 {
		t.Fatal("no hints queued while a replica is down")
	}
	// Mid-outage reads already match the oracle (the healthy replica
	// answers; readOrder routes around the hinted peer).
	h.checkEquivalence(t, "during outage")

	// Heal. The background drain loop must empty the queue on its own.
	h.nodes[victim].down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for h.coord.PendingHints() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hint queue did not drain after heal (%d pending)", h.coord.PendingHints())
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.checkEquivalence(t, "after heal")

	// No acked point lost, checked replica by replica: the healed node's
	// own store must answer byte-identically to the oracle for every
	// measurement it owns.
	ctx := context.Background()
	oracle := tsdb.LocalQuerier{Store: h.oracle}
	victimLocal := tsdb.LocalQuerier{Store: h.nodes[victim].store}
	for _, m := range []string{"cpu", "likwid_mem_dp", "events"} {
		owned := false
		for _, id := range h.coord.owners("lms", m) {
			if id == victim {
				owned = true
			}
		}
		if !owned {
			continue
		}
		req := tsdb.Request{Database: "lms", RawQuery: "SELECT * FROM " + m, Epoch: "ns"}
		want, err := oracle.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := victimLocal.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("healed replica diverges on owned measurement %q:\n replica: %s\n oracle:  %s",
				m, mustJSON(t, got), mustJSON(t, want))
		}
	}
}

// TestClusterHintsSurviveCoordinatorRestart: the hint queue is durable —
// a coordinator restart recovers parked hints from its WAL and still
// drains them into the healed peer.
func TestClusterHintsSurviveCoordinatorRestart(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1, HintsDir: t.TempDir(), DrainInterval: time.Hour})
	h.seed(t)

	victim := h.coord.owners("lms", "outage_m")[0]
	h.nodes[victim].down.Store(true)
	sink := h.coord.SinkFor("lms")
	if err := sink.WritePoints(testPoints("outage_m", "h9", 4)); err != nil {
		t.Fatal(err)
	}
	if h.coord.PendingHints() == 0 {
		t.Fatal("no hints queued")
	}
	hintsDir := h.coord.cfg.HintsDir
	if err := h.coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted coordinator: same peers, same hints dir.
	coord2, err := New(Config{
		Peers:         h.peers,
		Replication:   2,
		HintsDir:      hintsDir,
		DrainInterval: time.Hour,
		HTTPClient:    &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if got := coord2.PendingHints(); got == 0 {
		t.Fatal("restart lost the parked hints")
	}
	h.nodes[victim].down.Store(false)
	if err := coord2.DrainHints(context.Background()); err != nil {
		t.Fatal(err)
	}
	if coord2.PendingHints() != 0 {
		t.Fatal("hints still pending after drain")
	}
	res, err := tsdb.LocalQuerier{Store: h.nodes[victim].store}.Query(context.Background(),
		tsdb.Request{Database: "lms", RawQuery: "SELECT value FROM outage_m", Epoch: "ns"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || len(res.Results[0].Series) != 1 || len(res.Results[0].Series[0].Values) != 4 {
		t.Fatalf("healed replica missing replayed points: %s", mustJSON(t, res))
	}
}

// TestClusterDrainsParentFormatHints: a hints directory left behind by a
// coordinator from before the peer wire carried frames holds records of
// uvarint(len(db)) | db | durable.AppendBatch(points) — the layout hint
// records still have — so it recovers and drains with no migration.
func TestClusterDrainsParentFormatHints(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	victim := h.coord.owners("lms", "old_m")[0]

	// What that coordinator's encodeHint(db, pts, nowNS) wrote.
	oldEncodeHint := func(db string, pts []lineproto.Point, nowNS int64) []byte {
		dst := binary.AppendUvarint(nil, uint64(len(db)))
		dst = append(dst, db...)
		return durable.AppendBatch(dst, pts, nowNS)
	}
	hintsDir := t.TempDir()
	w, err := durable.OpenWAL(filepath.Join(hintsDir, url.PathEscape(victim)), 0, durable.Options{Fsync: durable.FsyncPerBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := []lineproto.Point{lineproto.NewPoint(
		"old_m",
		map[string]string{"hostname": "h7", "jobid": "42", "username": "alice"},
		map[string]lineproto.Value{"msg": lineproto.String("job \"42\" started"), "value": lineproto.Int(-7)},
		time.Unix(2100, 0).UTC(),
	)}
	for _, pts := range [][]lineproto.Point{testPoints("old_m", "h9", 4), events} {
		if _, _, err := w.Append(oldEncodeHint("lms", pts, 1e9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	coord, err := New(Config{
		Peers:         h.peers,
		Replication:   2,
		HintsDir:      hintsDir,
		DrainInterval: time.Hour,
		HTTPClient:    &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatalf("recovering a parent-format hints directory: %v", err)
	}
	defer coord.Close()
	if got := coord.PendingHints(); got != 2 {
		t.Fatalf("recovered %d hints, want 2", got)
	}
	if err := coord.DrainHints(context.Background()); err != nil {
		t.Fatal(err)
	}
	if coord.PendingHints() != 0 {
		t.Fatal("hints still pending after drain")
	}
	oracle := tsdb.NewStore()
	if err := oracle.CreateDatabase("lms").WriteBatchContext(context.Background(), append(testPoints("old_m", "h9", 4), events...)); err != nil {
		t.Fatal(err)
	}
	req := tsdb.Request{Database: "lms", RawQuery: "SELECT * FROM old_m", Epoch: "ns"}
	want, err := tsdb.LocalQuerier{Store: oracle}.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tsdb.LocalQuerier{Store: h.nodes[victim].store}.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("replayed parent-format hints diverge:\n replica: %s\n oracle:  %s", mustJSON(t, got), mustJSON(t, want))
	}
}

// TestClusterReplicaPredatesFrameDoor is the §12 failure-matrix row of a
// half-upgraded ring: a replica that does not know the frame door answers
// 400, which costs what a down replica costs — the write acknowledges at
// quorum, the share is hinted, the peer's error counter and hint depth
// say so — and the hint drains once the replica is upgraded.
func TestClusterReplicaPredatesFrameDoor(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1, DrainInterval: time.Hour})
	h.seed(t)
	victim := h.coord.owners("lms", "upgrade_m")[0]
	h.nodes[victim].old.Store(true)
	errsBefore := h.coord.nodes[victim].batchesErr.Load()
	if err := h.coord.SinkFor("lms").WritePoints(testPoints("upgrade_m", "h1", 3)); err != nil {
		t.Fatalf("write with one un-upgraded replica not acknowledged: %v", err)
	}
	if got := h.coord.nodes[victim].batchesErr.Load(); got != errsBefore+1 {
		t.Fatalf("peer error counter %d, want %d", got, errsBefore+1)
	}
	if got := h.coord.pendingHints(victim); got != 1 {
		t.Fatalf("%d hints pending for the un-upgraded replica, want 1", got)
	}
	if err := h.coord.DrainHints(context.Background()); err == nil {
		t.Fatal("drain into an un-upgraded replica reported success")
	}

	h.nodes[victim].old.Store(false)
	if err := h.coord.DrainHints(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.coord.PendingHints() != 0 {
		t.Fatal("hints still pending after the upgrade")
	}
	res, err := tsdb.LocalQuerier{Store: h.nodes[victim].store}.Query(context.Background(),
		tsdb.Request{Database: "lms", RawQuery: "SELECT value FROM upgrade_m", Epoch: "ns"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || len(res.Results[0].Series) != 1 || len(res.Results[0].Series[0].Values) != 3 {
		t.Fatalf("upgraded replica missing the hinted points: %s", mustJSON(t, res))
	}
}

// TestClusterQuorumFailure: with W=R=2 and one owner dead, writes to its
// measurements must fail upstream (the router counts them dropped and the
// client retries) instead of acking below quorum.
func TestClusterQuorumFailure(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 2})
	h.seed(t)
	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].down.Store(true)
	err := h.coord.SinkFor("lms").WritePoints(testPoints("cpu", "h1", 2))
	if err == nil {
		t.Fatal("write acked below write quorum")
	}
	if !strings.Contains(err.Error(), "replicas acked") {
		t.Fatalf("unexpected quorum error: %v", err)
	}
	if h.coord.quorumFailures.Load() == 0 {
		t.Fatal("quorum failure not counted")
	}
}

// TestClusterStampsZeroTimestamps: the coordinator resolves missing
// timestamps once, so replicas store identical copies and a read failover
// cannot change answers.
func TestClusterStampsZeroTimestamps(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 2})
	pts := []lineproto.Point{lineproto.NewPoint(
		"zt",
		map[string]string{"hostname": "h1"},
		map[string]lineproto.Value{"value": lineproto.Float(1)},
		time.Time{},
	)}
	if err := h.coord.SinkFor("lms").WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	owners := h.coord.owners("lms", "zt")
	req := tsdb.Request{Database: "lms", RawQuery: "SELECT * FROM zt", Epoch: "ns"}
	var answers []string
	for _, id := range owners {
		res, err := tsdb.LocalQuerier{Store: h.nodes[id].store}.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, mustJSON(t, res))
	}
	if answers[0] != answers[1] {
		t.Fatalf("replicas diverged on server-assigned timestamps:\n %s\n %s", answers[0], answers[1])
	}
	if pts[0].Time.IsZero() {
		// The caller's batch must not be mutated (the router publishes it
		// downstream after the sink returns).
		t.Log("caller batch left untouched")
	} else {
		t.Fatal("coordinator mutated the caller's batch")
	}
}

// TestClusterMetricsExposed: the cluster registers its series into an
// existing registry and the scrape carries the per-peer write counters,
// hint gauges and the ring generation.
func TestClusterMetricsExposed(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1, HintsDir: t.TempDir(), DrainInterval: time.Hour})
	reg := obs.NewRegistry()
	h.coord.RegisterMetrics(reg)
	h.seed(t)
	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].down.Store(true)
	_ = h.coord.SinkFor("lms").WritePoints(testPoints("cpu", "h1", 2))

	var sb strings.Builder
	reg.Render(&sb)
	scrape := sb.String()
	for _, want := range []string{
		"lms_cluster_ring_generation",
		"lms_cluster_nodes 3",
		`lms_cluster_replicated_batches_total{peer="` + victim + `",status="error"}`,
		`lms_cluster_hint_queue_depth{peer="` + victim + `"} 1`,
		"lms_cluster_hints_replayed_total",
		"lms_cluster_fanout_seconds",
		"lms_cluster_quorum_failures_total",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}
}
