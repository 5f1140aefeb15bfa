package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// TestHTTPMultiStatementQuery checks that one request may carry several
// ';'-separated statements, each yielding one entry in "results" — the
// InfluxDB behaviour the dashboard agent uses to batch its panel queries.
func TestHTTPMultiStatementQuery(t *testing.T) {
	store := NewStore()
	db := store.CreateDatabase("lms")
	for i := 0; i < 5; i++ {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("cpu", map[string]string{"hostname": "h1"}, float64(i), int64(i))})
	}
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?db=lms&q=" +
		url.QueryEscape("SHOW MEASUREMENTS; SELECT mean(value) FROM cpu"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []ExecResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results %d", len(out.Results))
	}
	if out.Results[0].Series[0].Values[0][0].(string) != "cpu" {
		t.Fatalf("%+v", out.Results[0])
	}
	if out.Results[1].Series[0].Values[0][1].(float64) != 2 {
		t.Fatalf("%+v", out.Results[1])
	}
}

// TestHTTPQueryErrorInResults checks that a statement failing at execution
// reports its error inside the results array (HTTP 200), like InfluxDB.
func TestHTTPQueryErrorInResults(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?db=ghost&q=" + url.QueryEscape("SELECT value FROM cpu"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Results []ExecResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || !strings.Contains(out.Results[0].Err, "database") {
		t.Fatalf("%+v", out.Results)
	}
}

// TestWindowedDerivative exercises the derivative aggregator inside GROUP
// BY time windows, the query shape behind rate graphs of counter metrics.
func TestWindowedDerivative(t *testing.T) {
	db := newDB("lms")
	// Counter rising 100/s for 60 s, then 200/s for 60 s.
	total := 0.0
	for i := 0; i <= 120; i++ {
		rate := 100.0
		if i > 60 {
			rate = 200.0
		}
		total += rate
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("net", nil, total, int64(i)*time.Second.Nanoseconds())})
	}
	res, err := db.SelectContext(bg, Query{
		Measurement: "net",
		Every:       30 * time.Second,
		Cols:        star(AggDerivative, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res[0].Rows
	if len(rows) < 4 {
		t.Fatalf("rows %d", len(rows))
	}
	// Single-sample windows (the trailing partial one) yield no derivative
	// and render as nil.
	var rates []float64
	for _, r := range rows {
		if r.Values[0] != nil {
			rates = append(rates, r.Values[0].FloatVal())
		}
	}
	if len(rates) < 4 {
		t.Fatalf("rates %v", rates)
	}
	if rates[0] < 90 || rates[0] > 110 {
		t.Fatalf("first window rate %v", rates[0])
	}
	last := rates[len(rates)-1]
	if last < 190 || last > 210 {
		t.Fatalf("last window rate %v", last)
	}
}

// TestShowTagValuesQuotedKey accepts a quoted tag key.
func TestShowTagValuesQuotedKey(t *testing.T) {
	store := seedStore(t)
	res := execOne(t, store, "lms", `SHOW TAG VALUES FROM cpu WITH KEY = "hostname"`)
	if len(res.Series[0].Values) != 2 {
		t.Fatalf("%+v", res.Series[0])
	}
}

// TestLimitThroughInfluxQL verifies LIMIT reaches the executor.
func TestLimitThroughInfluxQL(t *testing.T) {
	store := seedStore(t)
	res := execOne(t, store, "lms", "SELECT value FROM cpu WHERE hostname = 'h1' LIMIT 2")
	if len(res.Series[0].Values) != 2 {
		t.Fatalf("rows %d", len(res.Series[0].Values))
	}
}

// TestSelectFieldSubset checks that selecting one of several fields leaves
// the others out of the columns.
func TestSelectFieldSubset(t *testing.T) {
	db := newDB("lms")
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, 1)})
	p := pt("m", nil, 2, 2)
	p.Fields = append([]lineproto.Field{{Key: "extra", Value: fieldOf(p, "value")}}, p.Fields...)
	_ = db.WriteBatchContext(bg, []lineproto.Point{p})
	res, err := db.SelectContext(bg, Query{Measurement: "m", Cols: []AggCol{{Field: "extra"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Columns) != 1 || res[0].Columns[0] != "extra" {
		t.Fatalf("columns %v", res[0].Columns)
	}
	// Only the row that has the field appears.
	if len(res[0].Rows) != 1 {
		t.Fatalf("rows %+v", res[0].Rows)
	}
}

// fieldOf returns p's value of the field key, the zero Value when it has none.
func fieldOf(p lineproto.Point, key string) lineproto.Value {
	for _, f := range p.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return lineproto.Value{}
}
