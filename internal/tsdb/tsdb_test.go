package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lineproto"
)

func ts(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// bg is the context of the tests' writes and selects.
var bg = context.Background()

// newDB builds a database the one way there is: in a fresh in-memory store.
func newDB(name string) *DB { return newDBOpts(name, StoreOptions{}) }

// newDBOpts is newDB on a store with the per-database options of o.
func newDBOpts(name string, o StoreOptions) *DB {
	st := NewStore()
	st.StoreOptions = o
	return st.CreateDatabase(name)
}

func pt(meas string, tags map[string]string, val float64, t int64) lineproto.Point {
	return lineproto.Point{
		Measurement: meas,
		Tags:        tags,
		Fields:      map[string]lineproto.Value{"value": lineproto.Float(val)},
		Time:        ts(t),
	}
}

func TestStoreCreateAndDrop(t *testing.T) {
	s := NewStore()
	db := s.CreateDatabase("lms")
	if db == nil || s.DB("lms") != db {
		t.Fatal("create/get mismatch")
	}
	if s.CreateDatabase("lms") != db {
		t.Fatal("create should be idempotent")
	}
	s.CreateDatabase("user_a")
	got := s.Databases()
	want := []string{"lms", "user_a"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("databases %v", got)
	}
	s.DropDatabase("user_a")
	if s.DB("user_a") != nil {
		t.Fatal("drop failed")
	}
}

func TestWriteAndSelectRaw(t *testing.T) {
	db := newDB("test")
	for i := 0; i < 10; i++ {
		if err := db.WriteBatchContext(bg, []lineproto.Point{pt("cpu", map[string]string{"hostname": "h1"}, float64(i), int64(i*100))}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("series %d", len(res))
	}
	if len(res[0].Rows) != 10 {
		t.Fatalf("rows %d", len(res[0].Rows))
	}
	for i, r := range res[0].Rows {
		if r.Time.UnixNano() != int64(i*100) {
			t.Errorf("row %d time %v", i, r.Time)
		}
		if r.Values[0].FloatVal() != float64(i) {
			t.Errorf("row %d value %v", i, r.Values[0])
		}
	}
}

func TestSelectTimeRange(t *testing.T) {
	db := newDB("test")
	for i := 0; i < 100; i++ {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, float64(i), int64(i))})
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m", Start: ts(10), End: ts(19)})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res[0].Rows); n != 10 {
		t.Fatalf("rows %d", n)
	}
	if res[0].Rows[0].Time.UnixNano() != 10 || res[0].Rows[9].Time.UnixNano() != 19 {
		t.Fatalf("range wrong: %v..%v", res[0].Rows[0].Time, res[0].Rows[9].Time)
	}
}

func TestSelectTagFilter(t *testing.T) {
	db := newDB("test")
	for i := 0; i < 4; i++ {
		host := fmt.Sprintf("h%d", i%2+1)
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("cpu", map[string]string{"hostname": host}, float64(i), int64(i))})
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu", Filter: TagFilter{"hostname": "h1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 2 {
		t.Fatalf("res %+v", res)
	}
	// Wildcard: tag must exist.
	res, err = db.SelectContext(bg, Query{Measurement: "cpu", Filter: TagFilter{"hostname": "*"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rows) != 4 {
		t.Fatalf("wildcard rows %d", len(res[0].Rows))
	}
	// Missing tag never matches.
	res, _ = db.SelectContext(bg, Query{Measurement: "cpu", Filter: TagFilter{"rack": "*"}})
	if len(res) != 0 {
		t.Fatalf("expected no series, got %+v", res)
	}
}

func TestSelectGroupByTag(t *testing.T) {
	db := newDB("test")
	for i := 0; i < 6; i++ {
		host := fmt.Sprintf("h%d", i%3+1)
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("cpu", map[string]string{"hostname": host, "core": "0"}, float64(i), int64(i))})
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu", GroupByTags: []string{"hostname"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("series %d", len(res))
	}
	seen := map[string]bool{}
	for _, s := range res {
		seen[s.Tags["hostname"]] = true
		if len(s.Rows) != 2 {
			t.Errorf("series %v rows %d", s.Tags, len(s.Rows))
		}
	}
	if !seen["h1"] || !seen["h2"] || !seen["h3"] {
		t.Fatalf("hosts %v", seen)
	}
}

func TestSelectAggregate(t *testing.T) {
	db := newDB("test")
	vals := []float64{4, 2, 8, 6}
	for i, v := range vals {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, v, int64(i))})
	}
	cases := []struct {
		agg  AggFunc
		want float64
	}{
		{AggMean, 5}, {AggMin, 2}, {AggMax, 8}, {AggSum, 20},
		{AggFirst, 4}, {AggLast, 6}, {AggSpread, 6}, {AggMedian, 5},
	}
	for _, c := range cases {
		res, err := db.SelectContext(bg, Query{Measurement: "m", Cols: star(c.agg, 0)})
		if err != nil {
			t.Fatalf("%s: %v", c.agg, err)
		}
		got := res[0].Rows[0].Values[0].FloatVal()
		if got != c.want {
			t.Errorf("%s: got %v want %v", c.agg, got, c.want)
		}
	}
	res, _ := db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggCount, 0)})
	if res[0].Rows[0].Values[0].IntVal() != 4 {
		t.Error("count")
	}
	res, _ = db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggStddev, 0)})
	want := math.Sqrt((1 + 9 + 9 + 1) / 3.0)
	if got := res[0].Rows[0].Values[0].FloatVal(); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev got %v want %v", got, want)
	}
	res, _ = db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggPercentile, 100)})
	if res[0].Rows[0].Values[0].FloatVal() != 8 {
		t.Error("p100")
	}
}

func TestSelectDerivative(t *testing.T) {
	db := newDB("test")
	// A counter increasing by 10 per second.
	for i := 0; i < 5; i++ {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("net_bytes", nil, float64(i*10), int64(i)*time.Second.Nanoseconds())})
	}
	res, err := db.SelectContext(bg, Query{Measurement: "net_bytes", Cols: star(AggDerivative, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].FloatVal(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("derivative %v", got)
	}
}

func TestSelectWindowed(t *testing.T) {
	db := newDB("test")
	// 60 points, one per second, value == second index.
	for i := 0; i < 60; i++ {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, float64(i), int64(i)*time.Second.Nanoseconds())})
	}
	res, err := db.SelectContext(bg, Query{
		Measurement: "m",
		Start:       ts(0),
		End:         ts(59 * time.Second.Nanoseconds()),
		Every:       10 * time.Second,
		Cols:        star(AggMean, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res[0].Rows
	if len(rows) != 6 {
		t.Fatalf("windows %d", len(rows))
	}
	for i, r := range rows {
		wantT := int64(i*10) * time.Second.Nanoseconds()
		wantV := float64(i*10) + 4.5
		if r.Time.UnixNano() != wantT {
			t.Errorf("window %d time %v", i, r.Time)
		}
		if got := r.Values[0].FloatVal(); math.Abs(got-wantV) > 1e-9 {
			t.Errorf("window %d mean %v want %v", i, got, wantV)
		}
	}
}

func TestSelectWindowAlignment(t *testing.T) {
	db := newDB("test")
	// Points at t=15s and t=25s with 10s windows must land in the 10s and 20s
	// aligned buckets.
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, 15*time.Second.Nanoseconds())})
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 2, 25*time.Second.Nanoseconds())})
	res, err := db.SelectContext(bg, Query{Measurement: "m", Every: 10 * time.Second, Cols: star(AggSum, 0)})
	if err != nil {
		t.Fatal(err)
	}
	rows := res[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Time.UnixNano() != 10*time.Second.Nanoseconds() ||
		rows[1].Time.UnixNano() != 20*time.Second.Nanoseconds() {
		t.Fatalf("alignment: %v %v", rows[0].Time, rows[1].Time)
	}
}

func TestSelectMissingMeasurement(t *testing.T) {
	db := newDB("test")
	if _, err := db.SelectContext(bg, Query{Measurement: "nope"}); err != ErrNoMeasurement {
		t.Fatalf("err %v", err)
	}
}

func TestSelectLimit(t *testing.T) {
	db := newDB("test")
	for i := 0; i < 10; i++ {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, float64(i), int64(i))})
	}
	res, _ := db.SelectContext(bg, Query{Measurement: "m", Limit: 3})
	if len(res[0].Rows) != 3 {
		t.Fatalf("rows %d", len(res[0].Rows))
	}
}

func TestStringEvents(t *testing.T) {
	db := newDB("test")
	ev := lineproto.Point{
		Measurement: "events",
		Tags:        map[string]string{"hostname": "h1"},
		Fields:      map[string]lineproto.Value{"text": lineproto.String("job 42 start")},
		Time:        ts(100),
	}
	if err := db.WriteBatchContext(bg, []lineproto.Point{ev}); err != nil {
		t.Fatal(err)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "events"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].StringVal(); got != "job 42 start" {
		t.Fatalf("event %q", got)
	}
	// Numeric aggregation over a string column yields no value.
	res, err = db.SelectContext(bg, Query{Measurement: "events", Cols: star(AggMean, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows[0].Values[0] != nil {
		t.Fatal("mean of string column should be nil")
	}
	// count/last work on strings.
	res, _ = db.SelectContext(bg, Query{Measurement: "events", Cols: star(AggLast, 0)})
	if res[0].Rows[0].Values[0].StringVal() != "job 42 start" {
		t.Fatal("last of string column")
	}
}

func TestOutOfOrderInsertIsSorted(t *testing.T) {
	db := newDB("test")
	order := []int64{50, 10, 30, 20, 40}
	for _, n := range order {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, float64(n), n)})
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, r := range res[0].Rows {
		if r.Time.UnixNano() <= prev {
			t.Fatalf("rows not sorted: %v", res[0].Rows)
		}
		prev = r.Time.UnixNano()
	}
}

func TestMetadataQueries(t *testing.T) {
	db := newDB("test")
	_ = db.WriteBatchContext(bg, []lineproto.Point{{
		Measurement: "cpu",
		Tags:        map[string]string{"hostname": "h1", "core": "0"},
		Fields:      map[string]lineproto.Value{"user": lineproto.Float(1), "system": lineproto.Float(2)},
		Time:        ts(1),
	}})
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("mem", map[string]string{"hostname": "h2"}, 1, 2)})
	if got := db.Measurements(); len(got) != 2 || got[0] != "cpu" || got[1] != "mem" {
		t.Fatalf("measurements %v", got)
	}
	if got := db.FieldKeys("cpu"); len(got) != 2 || got[0] != "system" || got[1] != "user" {
		t.Fatalf("fields %v", got)
	}
	if got := db.TagKeys("cpu"); len(got) != 2 || got[0] != "core" || got[1] != "hostname" {
		t.Fatalf("tagkeys %v", got)
	}
	if got := db.TagValues("cpu", "hostname"); len(got) != 1 || got[0] != "h1" {
		t.Fatalf("tagvalues %v", got)
	}
	if got := db.TagValues("", "hostname"); len(got) != 2 {
		t.Fatalf("global tagvalues %v", got)
	}
	if db.FieldKeys("absent") != nil || db.TagKeys("absent") != nil {
		t.Fatal("metadata for absent measurement should be nil")
	}
}

func TestRetention(t *testing.T) {
	db := newDB("test")
	db.SetRetention(time.Minute)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 100; i++ {
		_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, float64(i), base.Add(time.Duration(i)*time.Second).UnixNano())})
	}
	// A fresh point makes everything older than 1m expired; sweep now
	// rather than wait for the retention ticker.
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, time.Now().UnixNano())})
	db.DropBefore(time.Now().Add(-time.Minute))
	if n := db.PointCount(); n != 1 {
		t.Fatalf("points after retention: %d", n)
	}
}

func TestDropBeforeRemovesEmptyMeasurements(t *testing.T) {
	db := newDB("test")
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, 10)})
	db.DropBefore(ts(100))
	if got := db.Measurements(); len(got) != 0 {
		t.Fatalf("measurements %v", got)
	}
}

func TestWriteInvalidPoint(t *testing.T) {
	db := newDB("test")
	if err := db.WriteBatchContext(bg, []lineproto.Point{{}}); err == nil {
		t.Fatal("expected error")
	}
	err := db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, 1), {}})
	if err == nil {
		t.Fatal("expected batch error")
	}
	if db.PointCount() != 0 {
		t.Fatal("partial batch written")
	}
}

func TestWriteAssignsNow(t *testing.T) {
	db := newDB("test")
	p := lineproto.Point{Measurement: "m", Fields: map[string]lineproto.Value{"v": lineproto.Float(1)}}
	before := time.Now()
	_ = db.WriteBatchContext(bg, []lineproto.Point{p})
	res, _ := db.SelectContext(bg, Query{Measurement: "m"})
	got := res[0].Rows[0].Time
	if got.Before(before.Add(-time.Second)) || got.After(time.Now().Add(time.Second)) {
		t.Fatalf("assigned time %v", got)
	}
}

// Property: for random points, a full-range query returns them sorted and the
// mean of any window lies within [min, max].
func TestQueryInvariantsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		_ = seed
		db := newDB("prop")
		n := r.Intn(200) + 2
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := r.NormFloat64() * 100
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, v, r.Int63n(1_000_000))})
		}
		res, err := db.SelectContext(bg, Query{Measurement: "m"})
		if err != nil || len(res) != 1 {
			return false
		}
		prev := int64(-1)
		for _, row := range res[0].Rows {
			if row.Time.UnixNano() < prev {
				return false
			}
			prev = row.Time.UnixNano()
		}
		agg, err := db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggMean, 0)})
		if err != nil {
			return false
		}
		mean := agg[0].Rows[0].Values[0].FloatVal()
		return mean >= lo-1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ingestion order does not change query results.
func TestIngestOrderIndependenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		_ = seed
		n := r.Intn(50) + 2
		pts := make([]lineproto.Point, n)
		for i := range pts {
			// Unique timestamps so ordering is deterministic.
			pts[i] = pt("m", nil, r.Float64(), int64(i)*1000+r.Int63n(999))
		}
		db1 := newDB("a")
		for _, p := range pts {
			_ = db1.WriteBatchContext(bg, []lineproto.Point{p})
		}
		shuffled := append([]lineproto.Point(nil), pts...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		db2 := newDB("b")
		for _, p := range shuffled {
			_ = db2.WriteBatchContext(bg, []lineproto.Point{p})
		}
		r1, _ := db1.SelectContext(bg, Query{Measurement: "m"})
		r2, _ := db2.SelectContext(bg, Query{Measurement: "m"})
		if len(r1) != 1 || len(r2) != 1 || len(r1[0].Rows) != len(r2[0].Rows) {
			return false
		}
		for i := range r1[0].Rows {
			a, b := r1[0].Rows[i], r2[0].Rows[i]
			if !a.Time.Equal(b.Time) || a.Values[0].FloatVal() != b.Values[0].FloatVal() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileFunction(t *testing.T) {
	nums := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {-5, 1}, {150, 10},
	}
	for _, c := range cases {
		if got := percentile(nums, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v got %v want %v", c.p, got, c.want)
		}
	}
	if percentile([]float64{42}, 50) != 42 {
		t.Error("single element")
	}
	// Input must not be modified.
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("percentile modified input")
	}
}

func TestConcurrentWriteAndQuery(t *testing.T) {
	db := newDB("test")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", map[string]string{"g": fmt.Sprint(g)}, float64(i), int64(g*1000+i))})
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		_, _ = db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggMean, 0)})
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := db.PointCount(); n != 2000 {
		t.Fatalf("points %d", n)
	}
}

func TestSeriesKeyCanonical(t *testing.T) {
	a := seriesKey(map[string]string{"b": "2", "a": "1"})
	b := seriesKey(map[string]string{"a": "1", "b": "2"})
	if a != b || a != "a=1,b=2" {
		t.Fatalf("keys %q %q", a, b)
	}
	if seriesKey(nil) != "" {
		t.Fatal("nil tags key")
	}
}

func TestAggValidNames(t *testing.T) {
	for _, n := range []string{"count", "sum", "mean", "min", "max", "first", "last", "spread", "stddev", "median", "percentile", "derivative"} {
		if !ValidAgg(n) {
			t.Errorf("%s should be valid", n)
		}
	}
	if ValidAgg("explode") || ValidAgg("") {
		t.Error("invalid names accepted")
	}
}

func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// Property: median equals the 50th percentile of the sorted values.
func TestMedianProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		_ = seed
		n := r.Intn(30) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		s := sortedCopy(xs)
		var want float64
		if n%2 == 1 {
			want = s[n/2]
		} else {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		return math.Abs(percentile(xs, 50)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionTickerAgesOutIdleData guards the background retention
// ticker: before it existed, the sweep only fired on writes, so an idle
// database kept expired data forever. The ticker anchors the cutoff at
// the wall clock, so this data must disappear with no further ingest.
func TestRetentionTickerAgesOutIdleData(t *testing.T) {
	db := newDB("test")
	defer db.Close()
	if err := db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, time.Now().UnixNano())}); err != nil {
		t.Fatal(err)
	}
	db.SetRetention(100 * time.Millisecond) // ticker sweeps every 50ms
	deadline := time.Now().Add(10 * time.Second)
	for db.PointCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired data survived an idle database; the ticker never swept")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSetRetentionZeroStopsTicker: disabling retention stops the sweeper,
// so data written afterwards stays put.
func TestSetRetentionZeroStopsTicker(t *testing.T) {
	db := newDB("test")
	defer db.Close()
	db.SetRetention(20 * time.Millisecond)
	db.SetRetention(0)
	if err := db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, time.Now().Add(-time.Hour).UnixNano())}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if got := db.PointCount(); got != 1 {
		t.Fatalf("PointCount = %d after disabling retention, want 1", got)
	}
	// Close is idempotent and stops any ticker left running.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionTickerPreservesHistoricalData guards the ticker's anchor
// arithmetic: simulation dumps and backfills carry timestamps far in the
// past, and the retention window must stay anchored at the *stream's*
// newest point (advanced only by idle wall time), not jump to the wall
// clock and instantly purge everything.
func TestRetentionTickerPreservesHistoricalData(t *testing.T) {
	db := newDB("test")
	defer db.Close()
	newest := time.Now().Add(-time.Hour) // a 2017-style historical corpus
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 1, newest.Add(-5*time.Second).UnixNano())})
	_ = db.WriteBatchContext(bg, []lineproto.Point{pt("m", nil, 2, newest.UnixNano())})
	db.SetRetention(10 * time.Second)
	time.Sleep(2500 * time.Millisecond) // several ticker periods
	if got := db.PointCount(); got != 2 {
		t.Fatalf("historical points within the retention window were purged: PointCount = %d, want 2", got)
	}
}
