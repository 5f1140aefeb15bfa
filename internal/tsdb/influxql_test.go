package tsdb

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
)

func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	stmts, err := ParseQuery(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("parse %q: %d statements", q, len(stmts))
	}
	return stmts[0]
}

func TestParseSelectSimple(t *testing.T) {
	st := mustParse(t, "SELECT value FROM cpu_load")
	if st.Kind != StmtSelect || st.Query.Measurement != "cpu_load" {
		t.Fatalf("%+v", st)
	}
	if len(st.Query.Cols) != 1 || st.Query.Cols[0] != (AggCol{Field: "value"}) {
		t.Fatalf("cols %+v", st.Query.Cols)
	}
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, "SELECT * FROM mem")
	if len(st.Query.Cols) != 0 {
		t.Fatalf("SELECT * is the empty column list, got %+v", st.Query.Cols)
	}
}

func TestParseSelectAggregate(t *testing.T) {
	st := mustParse(t, "SELECT mean(value) FROM likwid_mem WHERE time >= 100 AND time <= 200 GROUP BY time(10s), hostname LIMIT 5")
	if st.Query.Cols[0] != (AggCol{Field: "value", Agg: AggMean}) {
		t.Fatalf("agg %+v", st.Query.Cols)
	}
	if st.Query.Start.UnixNano() != 100 || st.Query.End.UnixNano() != 200 {
		t.Fatalf("range %v %v", st.Query.Start, st.Query.End)
	}
	if st.Query.Every != 10*time.Second {
		t.Fatalf("every %v", st.Query.Every)
	}
	if len(st.Query.GroupByTags) != 1 || st.Query.GroupByTags[0] != "hostname" {
		t.Fatalf("groupby %v", st.Query.GroupByTags)
	}
	if st.Query.Limit != 5 {
		t.Fatalf("limit %d", st.Query.Limit)
	}
}

func TestParseSelectPercentile(t *testing.T) {
	st := mustParse(t, "SELECT percentile(value, 95) FROM m")
	if st.Query.Cols[0] != (AggCol{Field: "value", Agg: AggPercentile, Pct: 95}) {
		t.Fatalf("%+v", st.Query.Cols)
	}
}

func TestParseSelectTagCondition(t *testing.T) {
	st := mustParse(t, "SELECT value FROM cpu WHERE hostname = 'node01' AND jobid = '42.master'")
	if st.Query.Filter["hostname"] != "node01" || st.Query.Filter["jobid"] != "42.master" {
		t.Fatalf("filter %v", st.Query.Filter)
	}
}

// TestParseRefusesRepeatedTagKey: a filter holds one value per tag key, so
// a second condition on the same key would silently replace the first —
// "hostname = 'h1' AND hostname = 'h2'" answered h2's rows, under a cache
// key that printed only the second condition. The parser refuses it,
// naming the key, at every door that parses InfluxQL.
func TestParseRefusesRepeatedTagKey(t *testing.T) {
	for _, c := range []struct{ q, key string }{
		{"SELECT value FROM cpu WHERE hostname = 'h1' AND hostname = 'h2'", "hostname"},
		{"SELECT value FROM cpu WHERE hostname = 'h1' AND jobid = '1' AND \"hostname\" = 'h1'", "hostname"},
		{"EXPLAIN ANALYZE SELECT mean(value) FROM cpu WHERE jobid = '1' AND time >= 0 AND jobid = '2'", "jobid"},
	} {
		_, err := ParseQuery(c.q)
		if err == nil || !strings.Contains(err.Error(), "repeated") || !strings.Contains(err.Error(), strconv.Quote(c.key)) {
			t.Fatalf("%q: err %v, want a repeated-key error naming %q", c.q, err, c.key)
		}
	}
	store := seedStore(t)
	_, err := LocalQuerier{Store: store}.Query(context.Background(), Request{Database: "lms",
		RawQuery: "SELECT value FROM cpu WHERE hostname = 'h1' AND hostname = 'h2'"})
	if err == nil {
		t.Fatal("LocalQuerier answered a statement with a repeated tag key")
	}
}

func TestParseSelectQuotedIdent(t *testing.T) {
	st := mustParse(t, `SELECT "value" FROM "my measurement"`)
	if st.Query.Measurement != "my measurement" {
		t.Fatalf("measurement %q", st.Query.Measurement)
	}
}

func TestParseSelectGroupByStar(t *testing.T) {
	st := mustParse(t, "SELECT last(value) FROM cpu GROUP BY *")
	if len(st.Query.GroupByTags) != 1 || st.Query.GroupByTags[0] != "*" {
		t.Fatalf("groupby %v", st.Query.GroupByTags)
	}
}

func TestParseTimeRFC3339(t *testing.T) {
	st := mustParse(t, "SELECT value FROM m WHERE time >= '2017-08-04T10:00:00Z'")
	want := time.Date(2017, 8, 4, 10, 0, 0, 0, time.UTC)
	if !st.Query.Start.Equal(want) {
		t.Fatalf("start %v", st.Query.Start)
	}
}

func TestParseTimeWithUnit(t *testing.T) {
	st := mustParse(t, "SELECT value FROM m WHERE time >= 100s AND time < 200s")
	if st.Query.Start.UnixNano() != 100*time.Second.Nanoseconds() {
		t.Fatalf("start %v", st.Query.Start)
	}
	// `<` is exclusive; Query.End is inclusive.
	if st.Query.End.UnixNano() != 200*time.Second.Nanoseconds()-1 {
		t.Fatalf("end %v", st.Query.End)
	}
}

func TestParseShowStatements(t *testing.T) {
	cases := []struct {
		q    string
		kind StmtKind
	}{
		{"SHOW DATABASES", StmtShowDatabases},
		{"SHOW MEASUREMENTS", StmtShowMeasurements},
		{"SHOW FIELD KEYS FROM cpu", StmtShowFieldKeys},
		{"SHOW TAG KEYS FROM cpu", StmtShowTagKeys},
		{"SHOW TAG VALUES FROM cpu WITH KEY = hostname", StmtShowTagValues},
		{"SHOW TAG VALUES WITH KEY = hostname", StmtShowTagValues},
	}
	for _, c := range cases {
		st := mustParse(t, c.q)
		if st.Kind != c.kind {
			t.Errorf("%q: kind %v", c.q, st.Kind)
		}
	}
}

func TestParseCreateDrop(t *testing.T) {
	st := mustParse(t, "CREATE DATABASE lms")
	if st.Kind != StmtCreateDatabase || st.Target != "lms" {
		t.Fatalf("%+v", st)
	}
	st = mustParse(t, "DROP DATABASE lms")
	if st.Kind != StmtDropDatabase || st.Target != "lms" {
		t.Fatalf("%+v", st)
	}
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := ParseQuery("CREATE DATABASE a; CREATE DATABASE b")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 || stmts[0].Target != "a" || stmts[1].Target != "b" {
		t.Fatalf("%+v", stmts)
	}
}

func TestParseErrorsQL(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT value",
		"SELECT value FROM",
		"SELECT bogus(value) FROM m",
		"SELECT value FROM m WHERE",
		"SELECT value FROM m WHERE time ! 5",
		"SELECT value FROM m GROUP",
		"SELECT value FROM m GROUP BY time(abc)",
		"SELECT percentile(value) FROM m",
		"CREATE TABLE x",
		"DROP TABLE x",
		"SHOW NONSENSE",
		"SELECT value FROM m WHERE tag = unquoted",
		"EXPLAIN SELECT",
		"SELECT value FROM m LIMIT xyz",
	}
	for _, q := range bad {
		if _, err := ParseQuery(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestParseDurationUnits(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"10s", 10 * time.Second}, {"5m", 5 * time.Minute}, {"1h", time.Hour},
		{"500ms", 500 * time.Millisecond}, {"100u", 100 * time.Microsecond},
		{"42ns", 42}, {"42", 42}, {"1d", 24 * time.Hour}, {"2w", 14 * 24 * time.Hour},
		{"1.5s", 1500 * time.Millisecond},
	}
	for _, c := range cases {
		got, err := parseDuration(c.in)
		if err != nil || got != c.want {
			t.Errorf("%q: got %v err %v", c.in, got, err)
		}
	}
	if _, err := parseDuration("10x"); err == nil {
		t.Error("bad unit accepted")
	}
	if _, err := parseDuration("xs"); err == nil {
		t.Error("bad number accepted")
	}
}

func execOne(t *testing.T, store *Store, db, q string) ExecResult {
	t.Helper()
	stmts, err := ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteContext(context.Background(), store, db, stmts[0], "")
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	return res
}

func seedStore(t *testing.T) *Store {
	t.Helper()
	store := NewStore()
	db := store.CreateDatabase("lms")
	for i := 0; i < 10; i++ {
		host := "h1"
		if i%2 == 1 {
			host = "h2"
		}
		if err := db.WriteBatchContext(bg, []lineproto.Point{pt("cpu", map[string]string{"hostname": host}, float64(i), int64(i)*time.Second.Nanoseconds())}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestExecuteSelectRaw(t *testing.T) {
	store := seedStore(t)
	res := execOne(t, store, "lms", "SELECT value FROM cpu WHERE hostname = 'h1'")
	if len(res.Series) != 1 {
		t.Fatalf("series %d", len(res.Series))
	}
	s := res.Series[0]
	if s.Columns[0] != "time" || s.Columns[1] != "value" {
		t.Fatalf("columns %v", s.Columns)
	}
	if len(s.Values) != 5 {
		t.Fatalf("rows %d", len(s.Values))
	}
	if s.Values[0][1].(float64) != 0.0 {
		t.Fatalf("first value %v", s.Values[0][1])
	}
}

func TestExecuteSelectAggGroupBy(t *testing.T) {
	store := seedStore(t)
	res := execOne(t, store, "lms", "SELECT mean(value) FROM cpu GROUP BY hostname")
	if len(res.Series) != 2 {
		t.Fatalf("series %d", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Columns[1] != "mean_value" {
			t.Fatalf("columns %v", s.Columns)
		}
		if len(s.Values) != 1 {
			t.Fatalf("rows %d", len(s.Values))
		}
		host := s.Tags["hostname"]
		v := s.Values[0][1].(float64)
		if host == "h1" && v != 4 { // 0,2,4,6,8
			t.Errorf("h1 mean %v", v)
		}
		if host == "h2" && v != 5 { // 1,3,5,7,9
			t.Errorf("h2 mean %v", v)
		}
	}
}

func TestExecuteSelectGroupByStar(t *testing.T) {
	store := seedStore(t)
	res := execOne(t, store, "lms", "SELECT last(value) FROM cpu GROUP BY *")
	if len(res.Series) != 2 {
		t.Fatalf("series %d", len(res.Series))
	}
}

func TestExecuteShow(t *testing.T) {
	store := seedStore(t)
	res := execOne(t, store, "", "SHOW DATABASES")
	if res.Series[0].Values[0][0].(string) != "lms" {
		t.Fatalf("%v", res.Series[0].Values)
	}
	res = execOne(t, store, "lms", "SHOW MEASUREMENTS")
	if res.Series[0].Values[0][0].(string) != "cpu" {
		t.Fatalf("%v", res.Series[0].Values)
	}
	res = execOne(t, store, "lms", "SHOW TAG VALUES FROM cpu WITH KEY = hostname")
	if len(res.Series[0].Values) != 2 {
		t.Fatalf("%v", res.Series[0].Values)
	}
	res = execOne(t, store, "lms", "SHOW FIELD KEYS FROM cpu")
	if res.Series[0].Values[0][0].(string) != "value" {
		t.Fatalf("%v", res.Series[0].Values)
	}
}

func TestExecuteCreateDrop(t *testing.T) {
	store := NewStore()
	execOne(t, store, "", "CREATE DATABASE userdb")
	if store.DB("userdb") == nil {
		t.Fatal("create failed")
	}
	execOne(t, store, "", "DROP DATABASE userdb")
	if store.DB("userdb") != nil {
		t.Fatal("drop failed")
	}
}

func TestExecuteMissingDatabase(t *testing.T) {
	store := NewStore()
	stmts, _ := ParseQuery("SELECT value FROM cpu")
	if _, err := ExecuteContext(context.Background(), store, "ghost", stmts[0], ""); err != ErrNoDatabase {
		t.Fatalf("err %v", err)
	}
}

func TestExecuteMissingMeasurementIsEmpty(t *testing.T) {
	store := NewStore()
	store.CreateDatabase("lms")
	res := execOne(t, store, "lms", "SELECT value FROM ghost")
	if len(res.Series) != 0 {
		t.Fatalf("expected empty result, got %+v", res)
	}
}

// TestStrictTimeBoundsExclusive: `time > t` and `time < t` exclude a point
// sitting exactly on t, `>=`/`<=` include it — straight from the parser and
// after the Statement.Text() round trip the cluster coordinator puts every
// statement through on its way to a replica. seedStore holds one cpu point
// per second at 0s..9s.
func TestStrictTimeBoundsExclusive(t *testing.T) {
	qr := LocalQuerier{Store: seedStore(t)}
	for _, tc := range []struct {
		where string
		want  []int64 // timestamps of the returned rows, in seconds
	}{
		{"time > 2s AND time < 6s", []int64{3, 4, 5}},
		{"time >= 2s AND time <= 6s", []int64{2, 3, 4, 5, 6}},
		{"time > 7s", []int64{8, 9}},
		{"time < 2s", []int64{0, 1}},
		{"time > 4s AND time < 5s", nil},
	} {
		parsed := mustParse(t, "SELECT value FROM cpu WHERE "+tc.where)
		again := mustParse(t, parsed.Text())
		if again.Text() != parsed.Text() {
			t.Fatalf("%s: Text() is not a fixed point: %q vs %q", tc.where, again.Text(), parsed.Text())
		}
		for door, st := range map[string]Statement{"parsed": parsed, "via Text()": again} {
			rsp, err := qr.Query(context.Background(), Request{Database: "lms", Statements: []Statement{st}, Epoch: "s"})
			if err != nil || rsp.Err() != nil {
				t.Fatalf("%s (%s): %v / %v", tc.where, door, err, rsp.Err())
			}
			var got []int64
			for _, s := range rsp.Results[0].Series {
				for _, row := range s.Values {
					got = append(got, row[0].(int64))
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s (%s): rows at %v, want %v", tc.where, door, got, tc.want)
			}
		}
	}
}

// FuzzParseQuery feeds the /query door's q= parameter — text from outside
// the program — to the parser: it must never panic, and whatever parses
// must survive the wire form, ParseQuery(st.Text()) ≡ st, so a statement
// means the same on the node that parsed it and on the peer it is
// forwarded to.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		// The benchmark pool's four shapes: panel, eval, tail, meta.
		"SELECT mean(dp_mflop_s) FROM likwid_mem_dp WHERE jobid = '4711.master' AND time >= 1501804800000000000 AND time < 1501808400000000000 GROUP BY time(60s), hostname",
		"SELECT mean(dp_mflop_s), max(memory_bandwidth_mbytes_s) FROM likwid_mem_dp WHERE jobid = '4711.master' AND time >= 1501804800000000000 GROUP BY hostname",
		"SELECT percent FROM cpu WHERE hostname = 'node01' AND time >= 1501804800000000000 AND time < 1501808400000000000 LIMIT 100",
		"SHOW TAG VALUES FROM cpu WITH KEY = hostname; SHOW MEASUREMENTS",
		// The rest of the grammar.
		`SELECT *, "no such \"field\"" FROM "weird meas" WHERE "host name" = 'it\'s h1&co' GROUP BY *`,
		"EXPLAIN ANALYZE SELECT count(*), percentile(value, 37.5), first(note) FROM m WHERE time > '2017-08-04T00:00:00Z' AND time <= 90m GROUP BY time(500ms), rack LIMIT 7",
		"SHOW FIELD KEYS FROM cpu; SHOW TAG KEYS; SHOW DATABASES; CREATE DATABASE x; DROP DATABASE x",
		`SELECT "", "-x", "9lives" FROM "" WHERE "0" = ''`, // identifiers that would lex as numbers
		// The refused forms.
		"SELECT mean(user), sys FROM cpu",
		"SELECT *, mean(user) FROM cpu",
		"SELECT user FROM cpu GROUP BY time(3s)",
		"SELECT percentile(user, 150) FROM cpu",
		"SELECT percentile(user, -5) FROM cpu",
		"SELECT value FROM cpu LIMIT -1",
		"SELECT mean(value) FROM cpu WHERE time > 9223372036854775807 GROUP BY time(-5s)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		stmts, err := ParseQuery(q)
		if err != nil {
			return
		}
		for _, st := range stmts {
			text := st.Text()
			again, err := ParseQuery(text)
			if err != nil {
				t.Fatalf("%q parsed, but its wire form %q does not: %v", q, text, err)
			}
			if len(again) != 1 || !reflect.DeepEqual(again[0], st) {
				t.Fatalf("%q: wire form %q reparsed to %+v, want %+v", q, text, again, st)
			}
		}
	})
}
