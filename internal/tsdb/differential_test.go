package tsdb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// The statement-level differential test (DESIGN.md §7): SELECTs are built
// as InfluxQL *text* next to the Query the text must mean — the parser is
// under test too, so the expected Query never passes through it — and run
// through every door: LocalQuerier, Client plain and chunked, and the
// coordinator of a 3-node ring. The doors must answer byte-identically,
// every cell must equal the row-at-a-time oracle (select_test.go), and a
// refused statement must be refused with one error text everywhere. The
// identity oracles alone pass when every door shares one wrong answer;
// this is the test that does not.

// door is one way of asking; errText recovers the statement-level message
// from the door's error so refusals can be compared across doors.
type door struct {
	name    string
	qr      tsdb.Querier
	chunked bool
}

// errText is the server's own message: the HTTP doors wrap it as
// "tsdb: query status 400: {"error": "<message>"}".
func errText(err error) string {
	msg := err.Error()
	if i := strings.Index(msg, "{"); i >= 0 {
		var body struct {
			Error string `json:"error"`
		}
		if json.Unmarshal([]byte(msg[i:]), &body) == nil && body.Error != "" {
			return body.Error
		}
	}
	return msg
}

// diffStack is the fixture: a single-node store behind the local and HTTP
// doors, a 3-node R=2 ring behind the coordinator, both holding the same
// databases, and the raw twin of every database for the oracle to read
// (referenceSelect walks raw runs; the doors' "variant" is compressed).
type diffStack struct {
	doors  []door
	oracle map[string]*tsdb.DB
}

// variantBatches is seedSelectBatches made nasty: a bool column that only
// some rows carry, an out-of-order block landing inside every series, and
// same-timestamp rewrites that change values and widen rows.
func variantBatches() [][]lineproto.Point {
	batches := tsdb.SeedSelectBatches()
	var late, rewrite []lineproto.Point
	for s := 0; s < 6; s++ {
		tags := map[string]string{"hostname": fmt.Sprintf("h%d", s), "rack": fmt.Sprintf("r%d", s%2)}
		for i := 0; i < 40; i++ {
			// Between two stored rows of the series (step 7s): out of order.
			late = append(late, lineproto.Point{
				Measurement: "m", Tags: tags,
				Fields: map[string]lineproto.Value{"value": lineproto.Float(float64(i) + 0.5), "busy": lineproto.Bool(i%3 == 0)},
				Time:   time.Unix(0, int64(i*5)*7e9+3e9+int64(s)).UTC(),
			})
		}
		for i := 0; i < 200; i += 4 {
			rewrite = append(rewrite, lineproto.Point{
				Measurement: "m", Tags: tags,
				Fields: map[string]lineproto.Value{"ops": lineproto.Int(int64(1000 + i)), "busy": lineproto.Bool(i%8 == 0)},
				Time:   time.Unix(0, int64(i)*7e9+int64(s)).UTC(),
			})
		}
	}
	return append(batches, late, rewrite)
}

// fixtureBatch is the 9-point fixture of ISSUE 16: user = 1..9, sys =
// 100..108, one series.
func fixtureBatch() []lineproto.Point {
	var pts []lineproto.Point
	for i := 0; i < 9; i++ {
		pts = append(pts, lineproto.Point{
			Measurement: "cpu", Tags: map[string]string{"hostname": "h1"},
			Fields: map[string]lineproto.Value{"user": lineproto.Float(float64(i + 1)), "sys": lineproto.Float(float64(100 + i))},
			Time:   time.Unix(int64(i), 0).UTC(),
		})
	}
	return pts
}

func newDiffStack(t *testing.T) *diffStack {
	t.Helper()
	data := map[string][][]lineproto.Point{
		"lms":     tsdb.SeedSelectBatches(),
		"variant": variantBatches(),
		"fixture": {fixtureBatch()},
	}
	compress := func(s *tsdb.Store) {
		if s.DB("variant").Compress() == 0 {
			t.Fatal("variant did not compress")
		}
	}
	load := func(s *tsdb.Store) {
		for name, batches := range data {
			db := s.CreateDatabase(name)
			db.SetQueryCacheTTL(0)
			for _, b := range batches {
				if err := db.WriteBatchContext(context.Background(), b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ds := &diffStack{oracle: map[string]*tsdb.DB{}}
	raw := tsdb.NewStore()
	load(raw)
	for name := range data {
		ds.oracle[name] = raw.DB(name)
	}

	single := tsdb.NewStore()
	load(single)
	compress(single)
	srv := httptest.NewServer(tsdb.NewHandler(single))
	t.Cleanup(srv.Close)
	ds.doors = []door{
		{name: "local", qr: tsdb.LocalQuerier{Store: single}},
		{name: "http", qr: &tsdb.Client{BaseURL: srv.URL}},
		{name: "http chunked", qr: &tsdb.Client{BaseURL: srv.URL}, chunked: true},
	}

	// The ring: three real stores behind real handlers, each a coordinator
	// for its own /query, plus the router's store-less coordinator.
	var peers []string
	var stores []*tsdb.Store
	var handlers []*tsdb.Handler
	for i := 0; i < 3; i++ {
		st := tsdb.NewStore()
		h := tsdb.NewHandler(st)
		nsrv := httptest.NewServer(h)
		t.Cleanup(nsrv.Close)
		peers, stores, handlers = append(peers, nsrv.URL), append(stores, st), append(handlers, h)
	}
	for i, url := range peers {
		c, err := cluster.New(cluster.Config{Peers: peers, Self: url, SelfStore: stores[i], Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		handlers[i].Distributed = c.Querier()
	}
	coord, err := cluster.New(cluster.Config{Peers: peers, Replication: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	for name, batches := range data {
		if err := coord.Ensure(context.Background(), name); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := coord.SinkFor(name).WritePoints(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range stores {
		if db := st.DB("variant"); db != nil && db.PointCount() > 0 {
			compress(st)
		}
	}
	ds.doors = append(ds.doors,
		door{name: "coordinator", qr: coord.Querier()},
		door{name: "node /query", qr: &tsdb.Client{BaseURL: peers[0]}})
	return ds
}

// ask runs text through every door. The doors must agree: one JSON body,
// or one error text. It returns the local door's typed response.
func (ds *diffStack) ask(t *testing.T, db, text string) (tsdb.Response, string) {
	t.Helper()
	var first tsdb.Response
	var firstJSON, firstErr string
	for i, d := range ds.doors {
		resp, err := d.qr.Query(context.Background(), tsdb.Request{Database: db, RawQuery: text, Epoch: "ns", Chunked: d.chunked})
		var gotJSON, gotErr string
		if err != nil {
			gotErr = errText(err)
		} else {
			b, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON = string(b)
		}
		if i == 0 {
			first, firstJSON, firstErr = resp, gotJSON, gotErr
			continue
		}
		if gotJSON != firstJSON || gotErr != firstErr {
			t.Fatalf("%s on %s: door %q diverges from %q\n got: %s %s\nwant: %s %s",
				text, db, d.name, ds.doors[0].name, gotJSON, gotErr, firstJSON, firstErr)
		}
	}
	return first, firstErr
}

// genStatement draws one SELECT over measurement m: its text, the Query
// the text means, and — for the forms validate refuses — the reason.
func genStatement(r *rand.Rand) (text string, q tsdb.Query, refused string) {
	fields := []string{"value", "ops", "busy", "note", "ghost", "*"} // float, int, bool (variant only), sparse string, missing, all
	pcts := []float64{0, 37.5, 50, 90, 100}
	q.Measurement = "m"
	aggregated := r.Intn(4) > 0
	var cols []string
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		c := tsdb.AggCol{Field: fields[r.Intn(len(fields))]}
		s := c.Field
		if aggregated {
			c.Agg = tsdb.AllAggs[r.Intn(len(tsdb.AllAggs))]
			s = fmt.Sprintf("%s(%s)", c.Agg, c.Field)
			if c.Agg == tsdb.AggPercentile {
				c.Pct = pcts[r.Intn(len(pcts))]
				s = fmt.Sprintf("percentile(%s, %v)", c.Field, c.Pct)
			}
		}
		q.Cols = append(q.Cols, c)
		cols = append(cols, s)
	}
	if len(q.Cols) == 1 && q.Cols[0] == (tsdb.AggCol{Field: "*"}) {
		q.Cols = nil
	}
	// One draw in eight is a form that must be refused.
	switch r.Intn(24) {
	case 0:
		cols = append(cols, map[bool]string{true: "value", false: "max(ops)"}[aggregated])
		refused = "raw and aggregate columns cannot be mixed"
	case 1:
		cols = append(cols, map[bool]string{true: "*", false: "count(*)"}[aggregated])
		refused = "raw and aggregate columns cannot be mixed"
	case 2:
		cols = append(cols, fmt.Sprintf("percentile(value, %d)", []int{-5, 150}[r.Intn(2)]))
		if refused = "percentile argument"; !aggregated {
			refused = "raw and aggregate columns cannot be mixed"
		}
	}
	text = "SELECT " + strings.Join(cols, ", ") + " FROM m"

	var conds []string
	if r.Intn(3) == 0 {
		q.Filter = tsdb.TagFilter{}
		if r.Intn(2) == 0 {
			q.Filter["hostname"] = fmt.Sprintf("h%d", r.Intn(7)) // h6 matches nothing
			conds = append(conds, "hostname = '"+q.Filter["hostname"]+"'")
		}
		if len(q.Filter) == 0 || r.Intn(3) == 0 {
			q.Filter["rack"] = fmt.Sprintf("r%d", r.Intn(2))
			conds = append(conds, "rack = '"+q.Filter["rack"]+"'")
		}
	}
	// Bounds sit exactly on stored timestamps (row i of series s is at
	// i*7s + s ns), so strict and inclusive operators differ by a row.
	stamp := func() int64 { return int64(r.Intn(200))*7e9 + int64(r.Intn(6)) }
	if r.Intn(2) == 0 {
		a := stamp()
		if r.Intn(2) == 0 {
			conds = append(conds, fmt.Sprintf("time >= %d", a))
			q.Start = time.Unix(0, a).UTC()
		} else {
			conds = append(conds, fmt.Sprintf("time > %d", a))
			q.Start = time.Unix(0, a+1).UTC()
		}
	}
	if r.Intn(2) == 0 {
		b := stamp()
		if r.Intn(2) == 0 {
			conds = append(conds, fmt.Sprintf("time <= %d", b))
			q.End = time.Unix(0, b).UTC()
		} else {
			conds = append(conds, fmt.Sprintf("time < %d", b))
			q.End = time.Unix(0, b-1).UTC()
		}
	}
	if len(conds) > 0 {
		text += " WHERE " + strings.Join(conds, " AND ")
	}

	var groups []string
	if r.Intn(2) == 0 {
		if aggregated || r.Intn(8) == 0 {
			q.Every = []time.Duration{30 * time.Second, 45 * time.Second, 10 * time.Minute}[r.Intn(3)]
			groups = append(groups, fmt.Sprintf("time(%ds)", int(q.Every.Seconds())))
			if !aggregated && refused == "" {
				refused = "GROUP BY time() needs an aggregate column"
			}
		}
		for _, tag := range []string{"rack", "hostname"} {
			if r.Intn(2) == 0 {
				q.GroupByTags = append(q.GroupByTags, tag)
				groups = append(groups, tag)
			}
		}
	}
	if len(groups) > 0 {
		text += " GROUP BY " + strings.Join(groups, ", ")
	}
	if r.Intn(3) == 0 {
		q.Limit = 1 + r.Intn(12)
		text += fmt.Sprintf(" LIMIT %d", q.Limit)
	}
	return text, q, refused
}

// checkAgainstOracle holds the local door's typed response to the oracle's
// series, cell by cell: exact for raw columns and the discrete aggregators,
// 1e-9 relative for the sum family (whose merge reorders float additions).
func checkAgainstOracle(t *testing.T, label string, odb *tsdb.DB, q tsdb.Query, resp tsdb.Response) {
	t.Helper()
	want, err := tsdb.ReferenceSelect(odb, q)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	cols := tsdb.OracleCols(q, odb.FieldKeys(q.Measurement))
	if len(resp.Results) != 1 || resp.Results[0].Err != "" {
		t.Fatalf("%s: results %+v", label, resp.Results)
	}
	got := resp.Results[0].Series
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, oracle has %d", label, len(got), len(want))
	}
	for si, ws := range want {
		gs := got[si]
		wantTags := ws.Tags
		if len(wantTags) == 0 {
			wantTags = nil
		}
		if gs.Name != ws.Name || !reflect.DeepEqual(gs.Tags, wantTags) ||
			!reflect.DeepEqual(gs.Columns, append([]string{"time"}, ws.Columns...)) {
			t.Fatalf("%s series %d: header %q %v %v, oracle %q %v %v", label, si, gs.Name, gs.Tags, gs.Columns, ws.Name, ws.Tags, ws.Columns)
		}
		if len(gs.Values) != len(ws.Rows) {
			t.Fatalf("%s series %d (%v): %d rows, oracle has %d", label, si, ws.Tags, len(gs.Values), len(ws.Rows))
		}
		for ri, wr := range ws.Rows {
			gr := gs.Values[ri]
			if gr[0] != wr.Time.UnixNano() {
				t.Fatalf("%s series %d row %d: time %v, oracle %d", label, si, ri, gr[0], wr.Time.UnixNano())
			}
			for ci, wv := range wr.Values {
				if !cellEqual(gr[ci+1], wv, tsdb.ExactAggs[cols[ci].Agg]) {
					t.Fatalf("%s series %d row %d column %s: %v, oracle %v", label, si, ri, ws.Columns[ci], gr[ci+1], wv)
				}
			}
		}
	}
}

func cellEqual(got interface{}, want *lineproto.Value, exact bool) bool {
	if want == nil {
		return got == nil
	}
	switch want.Kind() {
	case lineproto.KindInt:
		return got == want.IntVal()
	case lineproto.KindBool:
		return got == want.BoolVal()
	case lineproto.KindString:
		return got == want.StringVal()
	}
	g, ok := got.(float64)
	if !ok {
		return false
	}
	w := want.FloatVal()
	if exact {
		return g == w
	}
	return math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
}

func TestSelectDifferential(t *testing.T) {
	t.Parallel()
	ds := newDiffStack(t)

	t.Run("fixed", func(t *testing.T) {
		// The five statements of ISSUE 16 and the three other refusals, on
		// the 9-point fixture, with their exact answers.
		for _, c := range []struct {
			text    string
			columns []string
			row     []interface{}
			refused string
		}{
			{text: "SELECT count(user), min(user), max(user) FROM cpu",
				columns: []string{"time", "count_user", "min_user", "max_user"}, row: []interface{}{int64(0), int64(9), 1.0, 9.0}},
			{text: "SELECT mean(user), max(sys) FROM cpu",
				columns: []string{"time", "mean_user", "max_sys"}, row: []interface{}{int64(0), 5.0, 108.0}},
			{text: "SELECT mean(user), sys FROM cpu", refused: "raw and aggregate columns cannot be mixed in one SELECT"},
			{text: "SELECT count(*), mean(user) FROM cpu",
				columns: []string{"time", "count_sys", "count_user", "mean_user"}, row: []interface{}{int64(0), int64(9), int64(9), 5.0}},
			{text: "SELECT *, mean(user) FROM cpu", refused: "raw and aggregate columns cannot be mixed in one SELECT"},
			{text: "SELECT user FROM cpu GROUP BY time(3s)", refused: "GROUP BY time() needs an aggregate column"},
			{text: "SELECT percentile(user, 150) FROM cpu", refused: "percentile argument 150 outside [0, 100]"},
			{text: "SELECT percentile(user, -5) FROM cpu", refused: "percentile argument -5 outside [0, 100]"},
		} {
			resp, errMsg := ds.ask(t, "fixture", c.text)
			if c.refused != "" {
				if want := fmt.Sprintf("tsdb: parse %q: %s", c.text, c.refused); errMsg != want {
					t.Fatalf("%s: error %q, want %q", c.text, errMsg, want)
				}
				continue
			}
			if errMsg != "" {
				t.Fatalf("%s: %s", c.text, errMsg)
			}
			s := resp.Results[0].Series
			if len(s) != 1 || !reflect.DeepEqual(s[0].Columns, c.columns) || !reflect.DeepEqual(s[0].Values, [][]interface{}{c.row}) {
				t.Fatalf("%s:\n got %+v\nwant %v %v", c.text, s, c.columns, c.row)
			}
		}
	})

	t.Run("programmatic", func(t *testing.T) {
		// A statement that never was text meets the same rule at execution.
		st := tsdb.SelectStatement(tsdb.Query{Measurement: "cpu"},
			tsdb.AggCol{Field: "user", Agg: tsdb.AggMean}, tsdb.AggCol{Field: "sys"})
		resp, err := ds.doors[0].qr.Query(context.Background(), tsdb.Request{Database: "fixture", Statements: []tsdb.Statement{st}})
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Err(); err == nil || err.Error() != "tsdb: raw and aggregate columns cannot be mixed in one SELECT" {
			t.Fatalf("mixed programmatic statement: %v, %+v", err, resp)
		}
	})

	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(16))
		answered, refusals := 0, 0
		for i := 0; i < 600; i++ {
			text, q, refused := genStatement(r)
			for _, db := range []string{"lms", "variant"} {
				label := fmt.Sprintf("#%d %s on %s", i, text, db)
				resp, errMsg := ds.ask(t, db, text)
				if refused != "" {
					if !strings.Contains(errMsg, refused) {
						t.Fatalf("%s: got error %q, want a refusal: %s", label, errMsg, refused)
					}
					refusals++
					continue
				}
				if errMsg != "" {
					t.Fatalf("%s: %s", label, errMsg)
				}
				checkAgainstOracle(t, label, ds.oracle[db], q, resp)
				answered++
			}
		}
		if answered < 800 || refusals < 100 {
			t.Fatalf("generator drifted: %d statements answered, %d refused", answered, refusals)
		}
	})
}
