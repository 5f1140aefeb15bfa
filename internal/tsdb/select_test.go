package tsdb

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// This file carries the serial reference engine — the seed implementation
// of Select, aggregateColumn and windowAggregate, kept verbatim as a
// test-only oracle over naive per-point row maps — and the equivalence
// suites pinning the two-phase partial-merging columnar engine
// (select.go, column.go) to it. The row type itself now lives here: the
// oracle materializes rows by decoding the columnar runs, so it doubles
// as a storage round-trip check.

// row is the naive per-point representation the seed engine stored; the
// oracle decodes columnar runs back into it.
type row struct {
	t      int64 // unix nanoseconds
	fields map[string]lineproto.Value
}

// seriesRuns lists a series' runs as chunks: its chunks, then its head cut
// out as one. The head's chunk comes from its own streams, so a head that
// encoded a row wrongly would decode the same way here as in Select: the
// reference engine checks the read path, and TestHeadBytesMatchOneShot and
// FuzzHeadAppend check the head's bytes against the one-shot encoders.
func seriesRuns(sr *series) []*compRun {
	runs := slices.Clone(sr.runs)
	if sr.head != nil {
		runs = append(runs, sr.head.chunk())
	}
	return runs
}

// decodeRun materializes one run of a measurement back into rows,
// reconstructing every field value through the interned tables.
func decodeRun(m *measurement, c *compRun) []row {
	run, err := decodeChunk(c, len(m.strs.vals), &decodeArena{})
	if err != nil {
		panic(err)
	}
	out := make([]row, len(run.ts))
	for i := range run.ts {
		fields := make(map[string]lineproto.Value)
		for ci := range run.cols {
			if c := &run.cols[ci]; c.has(i) {
				fields[c.Name] = c.At(i, m.strs.vals)
			}
		}
		out[i] = row{t: run.ts[i], fields: fields}
	}
	return out
}

// percentile is percentileSorted over an unsorted input (copied, so the
// input is not modified).
func percentile(nums []float64, p float64) float64 {
	s := append([]float64(nil), nums...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// aggregateColumn applies agg to the named column of the given rows.
// Rows lacking the column are skipped. String columns support only
// count/first/last. The bool result is false when no value was produced.
func aggregateColumn(rows []row, col string, agg AggFunc, pct float64) (lineproto.Value, bool) {
	switch agg {
	case AggCount:
		n := int64(0)
		for _, r := range rows {
			if _, ok := r.fields[col]; ok {
				n++
			}
		}
		if n == 0 {
			return lineproto.Value{}, false
		}
		return lineproto.Int(n), true
	case AggFirst:
		for _, r := range rows {
			if v, ok := r.fields[col]; ok {
				return v, true
			}
		}
		return lineproto.Value{}, false
	case AggLast:
		for i := len(rows) - 1; i >= 0; i-- {
			if v, ok := rows[i].fields[col]; ok {
				return v, true
			}
		}
		return lineproto.Value{}, false
	case AggDerivative:
		var firstT, lastT int64
		var firstV, lastV float64
		n := 0
		for _, r := range rows {
			v, ok := r.fields[col]
			if !ok || v.Kind() == lineproto.KindString {
				continue
			}
			if n == 0 {
				firstT, firstV = r.t, v.FloatVal()
			}
			lastT, lastV = r.t, v.FloatVal()
			n++
		}
		if n < 2 || lastT == firstT {
			return lineproto.Value{}, false
		}
		dt := float64(lastT-firstT) / 1e9
		return lineproto.Float((lastV - firstV) / dt), true
	}

	nums := make([]float64, 0, len(rows))
	for _, r := range rows {
		v, ok := r.fields[col]
		if !ok || v.Kind() == lineproto.KindString {
			continue
		}
		nums = append(nums, v.FloatVal())
	}
	if len(nums) == 0 {
		return lineproto.Value{}, false
	}
	switch agg {
	case AggSum:
		return lineproto.Float(sum(nums)), true
	case AggMean:
		return lineproto.Float(sum(nums) / float64(len(nums))), true
	case AggMin:
		m := nums[0]
		for _, v := range nums[1:] {
			if v < m {
				m = v
			}
		}
		return lineproto.Float(m), true
	case AggMax:
		m := nums[0]
		for _, v := range nums[1:] {
			if v > m {
				m = v
			}
		}
		return lineproto.Float(m), true
	case AggSpread:
		lo, hi := nums[0], nums[0]
		for _, v := range nums[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lineproto.Float(hi - lo), true
	case AggStddev:
		if len(nums) < 2 {
			return lineproto.Float(0), true
		}
		mean := sum(nums) / float64(len(nums))
		var ss float64
		for _, v := range nums {
			d := v - mean
			ss += d * d
		}
		return lineproto.Float(math.Sqrt(ss / float64(len(nums)-1))), true
	case AggMedian:
		return lineproto.Float(percentile(nums, 50)), true
	case AggPercentile:
		return lineproto.Float(percentile(nums, pct)), true
	default:
		return lineproto.Value{}, false
	}
}

// windowAggregate buckets rows into aligned windows of width every and
// applies each column's own aggregate. Empty windows are skipped (InfluxDB
// fill(none)).
func windowAggregate(rows []row, cols []AggCol, every time.Duration, startNS, endNS int64) []Row {
	if len(rows) == 0 {
		return nil
	}
	w := every.Nanoseconds()
	if w <= 0 {
		return nil
	}
	if startNS == minInt64 {
		startNS = rows[0].t
	}
	first := rows[0].t
	if first < startNS {
		first = startNS
	}
	align := func(t int64) int64 {
		if t >= 0 {
			return t - t%w
		}
		return t - (w+t%w)%w
	}
	var out []Row
	i := 0
	for winStart := align(first); i < len(rows); winStart += w {
		winEnd := winStart + w
		j := i
		for j < len(rows) && rows[j].t < winEnd {
			j++
		}
		if j > i {
			vals := make([]*lineproto.Value, len(cols))
			for ci, c := range cols {
				if v, ok := aggregateColumn(rows[i:j], c.Field, c.Agg, c.Pct); ok {
					vv := v
					vals[ci] = &vv
				}
			}
			out = append(out, Row{Time: time.Unix(0, winStart).UTC(), Values: vals})
			i = j
		}
		if winStart > endNS {
			break
		}
	}
	return out
}

// oracleCols is the oracles' own reading of a projection over a
// measurement's sorted field names: the empty list and "*" stand for every
// field, each under the aggregate the "*" was written under.
func oracleCols(q Query, fields []string) []AggCol {
	list := q.Cols
	if len(list) == 0 {
		list = []AggCol{{Field: "*"}}
	}
	var cols []AggCol
	for _, c := range list {
		expanded := []string{c.Field}
		if c.Field == "*" {
			expanded = fields
		}
		for _, f := range expanded {
			cols = append(cols, AggCol{Field: f, Agg: c.Agg, Pct: c.Pct})
		}
	}
	return cols
}

// oracleRender is the tail both row-at-a-time oracles (referenceSelect
// here, model.naiveSelect in column_test.go) share: project or aggregate
// one group's time-sorted rows into its result series, naming an aggregate
// column "<agg>_<field>".
func oracleRender(q Query, fields []string, tags map[string]string, rows []row) Series {
	cols := oracleCols(q, fields)
	res := Series{Name: q.Measurement, Tags: tags}
	aggregated := false
	for _, c := range cols {
		name := c.Field
		if c.Agg != AggNone {
			name = string(c.Agg) + "_" + c.Field
			aggregated = true
		}
		res.Columns = append(res.Columns, name)
	}
	startNS, endNS := rangeNS(q.Start, q.End)
	switch {
	case !aggregated:
		for _, r := range rows {
			vals := make([]*lineproto.Value, len(cols))
			any := false
			for i, c := range cols {
				if v, ok := r.fields[c.Field]; ok {
					vv := v
					vals[i] = &vv
					any = true
				}
			}
			if any {
				res.Rows = append(res.Rows, Row{Time: time.Unix(0, r.t).UTC(), Values: vals})
			}
		}
	case q.Every > 0:
		res.Rows = windowAggregate(rows, cols, q.Every, startNS, endNS)
	default:
		vals := make([]*lineproto.Value, len(cols))
		for i, c := range cols {
			if v, ok := aggregateColumn(rows, c.Field, c.Agg, c.Pct); ok {
				vv := v
				vals[i] = &vv
			}
		}
		t := q.Start
		if t.IsZero() && len(rows) > 0 {
			t = time.Unix(0, rows[0].t).UTC()
		}
		res.Rows = append(res.Rows, Row{Time: t, Values: vals})
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

// referenceSelect is the pre-pushdown serial engine: lock the shard, merge
// every matching row into per-group slices, stable-sort by time, aggregate
// with aggregateColumn/windowAggregate. It is kept verbatim as the oracle
// for the partial-merging engine behind DB.Select. It scans every series
// of m.series and never reads the tag index (index.go), GROUP BY *
// included.
func referenceSelect(db *DB, q Query) ([]Series, error) {
	sh := db.shardFor(q.Measurement)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.measurements[q.Measurement]
	if !ok {
		return nil, ErrNoMeasurement
	}
	if len(q.GroupByTags) == 1 && q.GroupByTags[0] == "*" {
		q.GroupByTags = scanTagKeys(m)
	}
	fields := make([]string, 0, len(m.fields))
	for k := range m.fields {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	startNS, endNS := rangeNS(q.Start, q.End)

	type group struct {
		tags map[string]string
		rows []row
	}
	groups := map[string]*group{}
	var order []string
	// Deterministic series order (the historical engine iterated the map).
	keys := make([]string, 0, len(m.series))
	for key := range m.series {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, skey := range keys {
		sr := m.series[skey]
		if !q.Filter.matches(sr.tags) {
			continue
		}
		var any bool
		var rows []row
		for _, run := range seriesRuns(sr) {
			all := decodeRun(m, run)
			lo := sort.Search(len(all), func(i int) bool { return all[i].t >= startNS })
			hi := sort.Search(len(all), func(i int) bool { return all[i].t > endNS })
			if lo < hi {
				rows = append(rows, all[lo:hi]...)
				any = true
			}
		}
		if !any {
			continue
		}
		gtags := map[string]string{}
		for _, k := range q.GroupByTags {
			gtags[k] = sr.tags[k]
		}
		key := seriesKey(gtags)
		g, ok := groups[key]
		if !ok {
			g = &group{tags: gtags}
			groups[key] = g
			order = append(order, key)
		}
		g.rows = append(g.rows, rows...)
	}
	sort.Strings(order)

	var out []Series
	for _, key := range order {
		g := groups[key]
		sort.SliceStable(g.rows, func(i, j int) bool { return g.rows[i].t < g.rows[j].t })
		out = append(out, oracleRender(q, fields, g.tags, g.rows))
	}
	return out, nil
}

// allAggs lists every supported aggregator.
var allAggs = []AggFunc{
	AggCount, AggSum, AggMean, AggMin, AggMax, AggFirst, AggLast,
	AggSpread, AggStddev, AggMedian, AggPercentile, AggDerivative,
}

// seedSelectBatches is a deterministic multi-series dataset: 6 series over
// hostname/rack, a numeric column, an int column, a sparse string column,
// and per-series timestamp offsets so no two series share a timestamp. It
// comes in two halves, the later half first, so writing them in order
// exercises the copy-on-reorder write path as well.
func seedSelectBatches() [][]lineproto.Point {
	rnd := uint64(1)
	next := func() float64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return float64(rnd%10000) / 10.0
	}
	var pts []lineproto.Point
	for s := 0; s < 6; s++ {
		host := fmt.Sprintf("h%d", s)
		rack := fmt.Sprintf("r%d", s%2)
		for i := 0; i < 200; i++ {
			fields := map[string]lineproto.Value{
				"value": lineproto.Float(next()),
				"ops":   lineproto.Int(int64(i % 17)),
			}
			if i%13 == 0 {
				fields["note"] = lineproto.String(fmt.Sprintf("mark-%d", i))
			}
			pts = append(pts, lineproto.NewPoint(
				"m",
				map[string]string{"hostname": host, "rack": rack},
				fields,
				time.Unix(0, int64(i)*7e9+int64(s)).UTC(),
			))
		}
	}
	return [][]lineproto.Point{pts[len(pts)/2:], pts[:len(pts)/2]}
}

// seedSelectDB loads seedSelectBatches into a fresh uncached database.
func seedSelectDB(t testing.TB, o StoreOptions) *DB {
	t.Helper()
	db := newDBOpts("lms", o)
	db.SetQueryCacheTTL(0)
	for _, batch := range seedSelectBatches() {
		if err := db.WriteBatchContext(bg, batch); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// star projects agg over every field of the measurement: agg(*).
func star(agg AggFunc, pct float64) []AggCol {
	return []AggCol{{Field: "*", Agg: agg, Pct: pct}}
}

func selectQueries() []Query {
	start := time.Unix(0, 0).UTC()
	end := time.Unix(0, 200*7e9).UTC()
	var qs []Query
	for _, agg := range allAggs {
		qs = append(qs,
			Query{Measurement: "m", Cols: star(agg, 90)},
			Query{Measurement: "m", Cols: star(agg, 37.5), Every: 60 * time.Second, Start: start, End: end},
			Query{Measurement: "m", Cols: star(agg, 99), GroupByTags: []string{"rack"}},
			Query{Measurement: "m", Cols: star(agg, 50), GroupByTags: []string{"hostname"}, Every: 45 * time.Second},
			Query{Measurement: "m", Cols: star(agg, 75), Filter: TagFilter{"rack": "r1"}, Every: 90 * time.Second, Limit: 5},
		)
	}
	qs = append(qs,
		Query{Measurement: "m"},
		Query{Measurement: "m", Limit: 7},
		Query{Measurement: "m", GroupByTags: []string{"rack"}, Limit: 11},
		Query{Measurement: "m", Cols: []AggCol{{Field: "value"}, {Field: "note"}}, Filter: TagFilter{"hostname": "h3"}},
	)
	return qs
}

// TestSelectContextRefusesInvalidQuery checks that the read door itself
// refuses what it cannot answer as asked — a direct SelectContext call and
// a pre-built statement through LocalQuerier alike — instead of answering
// something else under the asked-for name, or panicking.
func TestSelectContextRefusesInvalidQuery(t *testing.T) {
	t.Parallel()
	store := NewStore()
	db := store.CreateDatabase("lms")
	if err := db.WriteBatchContext(bg, []lineproto.Point{
		lineproto.NewPoint("m", map[string]string{"h": "a"}, map[string]lineproto.Value{"v": lineproto.Float(1)}, time.Unix(1, 0)),
		lineproto.NewPoint("m", map[string]string{"h": "a"}, map[string]lineproto.Value{"v": lineproto.Float(3)}, time.Unix(2, 0)),
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cols []AggCol
		want string
	}{
		{"mixed", []AggCol{{Field: "v", Agg: AggMean}, {Field: "v"}}, "cannot be mixed"},
		{"unknown", []AggCol{{Field: "v", Agg: "bogus"}}, `unknown function "bogus"`},
		{"nan-percentile", []AggCol{{Field: "v", Agg: AggPercentile, Pct: math.NaN()}}, "outside [0, 100]"},
	} {
		res, err := db.SelectContext(bg, Query{Measurement: "m", Cols: tc.cols})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SelectContext = %+v, %v; want an error containing %q", tc.name, res, err, tc.want)
		}
	}
	resp, err := LocalQuerier{Store: store}.Query(bg, Request{Database: "lms",
		Statements: []Statement{SelectStatement(Query{Measurement: "m"}, AggCol{Field: "v", Agg: "bogus"})}})
	if err != nil || len(resp.Results) != 1 || !strings.Contains(resp.Results[0].Err, `unknown function "bogus"`) {
		t.Errorf("LocalQuerier = %+v, %v; want one result embedding unknown function \"bogus\"", resp, err)
	}
}

// TestSelectMatchesReferenceEngine checks the merged-partial engine
// against the serial concat-sort-aggregate oracle for every AggFunc:
// exactly for the discrete and order-insensitive aggregators, within float
// tolerance for the compensated-sum family (whose merge reorders float
// additions).
func TestSelectMatchesReferenceEngine(t *testing.T) {
	t.Parallel()
	db := seedSelectDB(t, StoreOptions{ShardsPerDB: 4})
	for _, q := range selectQueries() {
		want, err1 := referenceSelect(db, q)
		got, err2 := db.SelectContext(bg, q)
		if err1 != nil || err2 != nil {
			t.Fatalf("cols %v: errors %v / %v", q.Cols, err1, err2)
		}
		compareResults(t, "reference", oracleCols(q, db.FieldKeys("m")), want, got)
	}
}

// TestSelectRawLimitPushdown checks that the per-series Limit clamp in
// phase 1 preserves the truncation semantics over multi-series groups.
func TestSelectRawLimitPushdown(t *testing.T) {
	t.Parallel()
	db := seedSelectDB(t, StoreOptions{ShardsPerDB: 2})
	for _, limit := range []int{1, 3, 10, 199, 200, 5000} {
		q := Query{Measurement: "m", Limit: limit}
		want, err := referenceSelect(db, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.SelectContext(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("limit %d: pushdown result differs from reference", limit)
		}
	}
}

// TestSelectLimitWithFieldProjection guards against over-eager Limit
// pushdown: when a field projection is requested, rows lacking the fields
// emit nothing, so the snapshot must not be clamped by raw row count —
// matching rows further down the series would be lost.
func TestSelectLimitWithFieldProjection(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 2})
	db.SetQueryCacheTTL(0)
	var pts []lineproto.Point
	for i := 0; i < 40; i++ {
		field := "a"
		if i >= 20 {
			field = "b"
		}
		pts = append(pts, lineproto.NewPoint(
			"m",
			map[string]string{"hostname": "h1"},
			map[string]lineproto.Value{field: lineproto.Float(float64(i))},
			time.Unix(int64(i), 0),
		))
	}
	if err := db.WriteBatchContext(bg, pts); err != nil {
		t.Fatal(err)
	}
	q := Query{Measurement: "m", Cols: []AggCol{{Field: "b"}}, Limit: 5}
	want, err := referenceSelect(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.SelectContext(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(want[0].Rows) != 5 {
		t.Fatalf("reference sanity: %+v", want)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("projected limit differs from reference:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestQueryCacheHitAndInvalidation covers the TTL'd result cache: repeated
// queries hit, a write to the queried measurement invalidates, a write to
// an unrelated measurement does not, and DropBefore invalidates globally.
func TestQueryCacheHitAndInvalidation(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	db.SetQueryCacheTTL(time.Hour)
	write := func(meas string, val float64, sec int64) {
		t.Helper()
		err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
			meas,
			map[string]string{"hostname": "h1"},
			map[string]lineproto.Value{"value": lineproto.Float(val)},
			time.Unix(sec, 0),
		)})
		if err != nil {
			t.Fatal(err)
		}
	}
	sumOf := func() float64 {
		t.Helper()
		res, err := db.SelectContext(bg, Query{Measurement: "m1", Cols: star(AggSum, 0)})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Rows[0].Values[0].FloatVal()
	}

	write("m1", 1, 1)
	write("m1", 2, 2)
	write("m2", 100, 1)

	if got := sumOf(); got != 3 {
		t.Fatalf("sum = %v, want 3", got)
	}
	if got := sumOf(); got != 3 {
		t.Fatalf("cached sum = %v, want 3", got)
	}
	hits, misses := db.QueryCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats after repeat = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A write to an unrelated measurement must not invalidate.
	write("m2", 200, 2)
	if got := sumOf(); got != 3 {
		t.Fatalf("sum after unrelated write = %v, want 3", got)
	}
	if hits, _ = db.QueryCacheStats(); hits != 2 {
		t.Fatalf("hits after unrelated write = %d, want 2", hits)
	}

	// A write to the queried measurement must invalidate and the fresh
	// result must include the new point.
	write("m1", 4, 3)
	if got := sumOf(); got != 7 {
		t.Fatalf("sum after write = %v, want 7", got)
	}
	hits, misses = db.QueryCacheStats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats after invalidation = %d hits / %d misses, want 2/2", hits, misses)
	}

	// DropBefore invalidates every cached entry.
	db.DropBefore(time.Unix(2, 0))
	if got := sumOf(); got != 6 {
		t.Fatalf("sum after drop = %v, want 6", got)
	}
	if _, misses = db.QueryCacheStats(); misses != 3 {
		t.Fatalf("misses after drop = %d, want 3", misses)
	}
}

// TestQueryCacheKeyCollision guards the cache key, the query's canonical
// InfluxQL: queries differing only in how list components would
// concatenate, or in any one component, must not share a cache entry.
func TestQueryCacheKeyCollision(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(time.Hour)
	err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"m",
		map[string]string{"hostname": "h1"},
		map[string]lineproto.Value{
			"a": lineproto.Float(1),
			"b": lineproto.Float(2),
		},
		time.Unix(1, 0),
	)})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := db.SelectContext(bg, Query{Measurement: "m", Cols: []AggCol{{Field: "a"}, {Field: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 1 || len(r1[0].Rows) != 1 {
		t.Fatalf("sanity: %+v", r1)
	}
	// "a,b" is one (nonexistent) column, not two: no rows may come back,
	// and in particular not the cached result of the two-column query.
	r2, err := db.SelectContext(bg, Query{Measurement: "m", Cols: []AggCol{{Field: "a,b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2) != 0 && len(r2[0].Rows) != 0 {
		t.Fatalf("colliding cache key served wrong result: %+v", r2)
	}

	// Queries that differ only in one column's aggregate, column order, the
	// percentile argument, group-by order, the window, LIMIT, one time
	// bound or one filter value are different queries: each gets its own
	// key and its own (correct) answer, cached or not.
	more := []lineproto.Point{
		lineproto.NewPoint("m", map[string]string{"hostname": "h2", "rack": "r1"}, map[string]lineproto.Value{"a": lineproto.Float(3)}, time.Unix(2, 0)),
		lineproto.NewPoint("m", map[string]string{"hostname": "h1", "rack": "r2"}, map[string]lineproto.Value{"a": lineproto.Float(5)}, time.Unix(3, 0)),
		lineproto.NewPoint("m", map[string]string{"hostname": "h2", "rack": "r2"}, map[string]lineproto.Value{"a": lineproto.Float(7)}, time.Unix(4, 0)),
	}
	if err := db.WriteBatchContext(bg, more); err != nil {
		t.Fatal(err)
	}
	maxA := []AggCol{{Field: "a", Agg: AggMax}}
	for _, pair := range [][2]Query{
		{{Measurement: "m", Cols: []AggCol{{Field: "a", Agg: AggMin}, {Field: "b", Agg: AggMin}}}, {Measurement: "m", Cols: []AggCol{{Field: "a", Agg: AggMin}, {Field: "b", Agg: AggCount}}}},
		{{Measurement: "m", Cols: []AggCol{{Field: "a", Agg: AggMax}, {Field: "b", Agg: AggMax}}}, {Measurement: "m", Cols: []AggCol{{Field: "b", Agg: AggMax}, {Field: "a", Agg: AggMax}}}},
		{{Measurement: "m", Cols: []AggCol{{Field: "a", Agg: AggPercentile, Pct: 10}}}, {Measurement: "m", Cols: []AggCol{{Field: "a", Agg: AggPercentile, Pct: 90}}}},
		{{Measurement: "m", Cols: maxA, GroupByTags: []string{"hostname", "rack"}}, {Measurement: "m", Cols: maxA, GroupByTags: []string{"rack", "hostname"}}},
		{{Measurement: "m", Cols: maxA, Every: time.Second}, {Measurement: "m", Cols: maxA, Every: 2 * time.Second}},
		{{Measurement: "m", Limit: 1}, {Measurement: "m", Limit: 2}},
		{{Measurement: "m", Start: time.Unix(2, 0)}, {Measurement: "m", Start: time.Unix(3, 0)}},
		{{Measurement: "m", Filter: TagFilter{"hostname": "h1"}}, {Measurement: "m", Filter: TagFilter{"hostname": "h2"}}},
	} {
		qa, qb := pair[0], pair[1]
		ka, kb := SelectStatement(qa, qa.Cols...).Text(), SelectStatement(qb, qb.Cols...).Text()
		if ka == kb {
			t.Fatalf("%+v and %+v share the cache key %q", qa, qb, ka)
		}
		for _, q := range []Query{qa, qb, qa, qb} {
			want, err := referenceSelect(db, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.SelectContext(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%+v through the cache:\nwant %+v\ngot  %+v", q, want, got)
			}
		}
	}
}

// TestQueryCacheDisabled checks that a zero TTL bypasses the cache.
func TestQueryCacheDisabled(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"m",
		nil,
		map[string]lineproto.Value{"value": lineproto.Float(1)},
		time.Unix(1, 0),
	)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.SelectContext(bg, Query{Measurement: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := db.QueryCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted %d hits / %d misses", hits, misses)
	}
}

// TestQueryCacheExpiry checks that entries stop being served after the TTL.
func TestQueryCacheExpiry(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(time.Millisecond)
	err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"m",
		nil,
		map[string]lineproto.Value{"value": lineproto.Float(1)},
		time.Unix(1, 0),
	)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectContext(bg, Query{Measurement: "m"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := db.SelectContext(bg, Query{Measurement: "m"}); err != nil {
		t.Fatal(err)
	}
	if _, misses := db.QueryCacheStats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (entry should have expired)", misses)
	}
}
