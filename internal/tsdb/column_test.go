package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// Tests of the columnar run storage (column.go): a randomized oracle
// holding the engine to a naive row-based model fed the same batches, and
// deterministic coverage of the same-timestamp rewrite path, sparse
// fields, mixed-kind columns and compaction.

// modelSeries is the naive independent reference: every accepted point in
// insertion order, one slice per series. It shares nothing with the
// columnar storage, so a storage bug cannot cancel out of the comparison.
type modelSeries struct {
	tags map[string]string
	rows []row
}

type model struct {
	series map[string]*modelSeries
	fields map[string]struct{}
}

func newModel() *model {
	return &model{series: map[string]*modelSeries{}, fields: map[string]struct{}{}}
}

func (mo *model) add(p lineproto.Point) {
	key := seriesKey(p.Tags)
	sr, ok := mo.series[key]
	if !ok {
		tags := make(map[string]string, len(p.Tags))
		for k, v := range p.Tags {
			tags[k] = v
		}
		sr = &modelSeries{tags: tags}
		mo.series[key] = sr
	}
	fields := make(map[string]lineproto.Value, len(p.Fields))
	for k, v := range p.Fields {
		fields[k] = v
		mo.fields[k] = struct{}{}
	}
	sr.rows = append(sr.rows, row{t: p.Time.UnixNano(), fields: fields})
}

// fieldNames lists the model's field keys, sorted.
func (mo *model) fieldNames() []string {
	fields := make([]string, 0, len(mo.fields))
	for k := range mo.fields {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	return fields
}

// naiveSelect executes q over the model with the seed concat-sort-
// aggregate pipeline (aggregateColumn / windowAggregate from
// select_test.go).
func (mo *model) naiveSelect(q Query) []Series {
	fields := mo.fieldNames()
	startNS, endNS := rangeNS(q.Start, q.End)

	type group struct {
		tags map[string]string
		rows []row
	}
	groups := map[string]*group{}
	keys := make([]string, 0, len(mo.series))
	for key := range mo.series {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var order []string
	for _, skey := range keys {
		sr := mo.series[skey]
		if !q.Filter.matches(sr.tags) {
			continue
		}
		var rows []row
		for _, r := range sr.rows {
			if r.t >= startNS && r.t <= endNS {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
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
	return out
}

// exactAggs lists the aggregators whose engine result must match the
// naive reference bit-for-bit; the compensated-sum family merges float
// additions in a different order and is compared within tolerance.
var exactAggs = map[AggFunc]bool{
	AggCount: true, AggMin: true, AggMax: true, AggSpread: true,
	AggFirst: true, AggLast: true, AggMedian: true, AggPercentile: true,
	AggDerivative: true, AggNone: true,
}

// compareResults holds got to want, each column by its own aggregate
// (cols is the oracle's expanded column list, oracleCols): exactly for
// discrete aggregators and within 1e-9 relative tolerance for the
// float-merge family.
func compareResults(t *testing.T, label string, cols []AggCol, want, got []Series) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s cols %v: series %d != %d\nwant %+v\ngot  %+v", label, cols, len(got), len(want), want, got)
	}
	for si := range want {
		ws, gs := want[si], got[si]
		if !reflect.DeepEqual(ws.Tags, gs.Tags) || !reflect.DeepEqual(ws.Columns, gs.Columns) {
			t.Fatalf("%s cols %v series %d: header mismatch (%v/%v vs %v/%v)",
				label, cols, si, gs.Tags, gs.Columns, ws.Tags, ws.Columns)
		}
		if len(ws.Rows) != len(gs.Rows) {
			t.Fatalf("%s cols %v series %d: rows %d != %d", label, cols, si, len(gs.Rows), len(ws.Rows))
		}
		for ri := range ws.Rows {
			wr, gr := ws.Rows[ri], gs.Rows[ri]
			if !wr.Time.Equal(gr.Time) {
				t.Fatalf("%s cols %v series %d row %d: time %v != %v", label, cols, si, ri, gr.Time, wr.Time)
			}
			for ci := range wr.Values {
				wv, gv := wr.Values[ci], gr.Values[ci]
				if (wv == nil) != (gv == nil) {
					t.Fatalf("%s cols %v series %d row %d col %d: nil mismatch (%v vs %v)",
						label, cols, si, ri, ci, wv, gv)
				}
				if wv == nil {
					continue
				}
				if exactAggs[cols[ci].Agg] {
					if !reflect.DeepEqual(*wv, *gv) {
						t.Fatalf("%s cols %v series %d row %d col %d: %v != %v",
							label, cols, si, ri, ci, gv, wv)
					}
					continue
				}
				a, b := wv.FloatVal(), gv.FloatVal()
				if diff := math.Abs(a - b); diff > 1e-9*math.Max(1, math.Abs(a)) {
					t.Fatalf("%s cols %v series %d row %d col %d: %g != %g (diff %g)",
						label, cols, si, ri, ci, b, a, diff)
				}
			}
		}
	}
}

// TestColumnarRandomizedOracle writes randomized batches — in-order,
// out-of-order, duplicate timestamps, sparse fields, mixed value kinds —
// into both the columnar store and the naive row model, and compares
// every query shape after every few batches. The seed is fixed, so a
// failure reproduces.
func TestColumnarRandomizedOracle(t *testing.T) {
	t.Parallel()
	rnd := rand.New(rand.NewSource(42))
	// Compress decisions draw from their own stream: the data stream stays
	// byte-identical to the uncompressed baseline, so any divergence below
	// is the compressed read path's fault, not a reshuffled workload.
	crnd := rand.New(rand.NewSource(7))
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 2})
	db.SetQueryCacheTTL(0)
	mo := newModel()

	hosts := []string{"h0", "h1", "h2"}
	nextUnique := int64(1 << 40) // strictly rising, appended once per batch
	makePoint := func(inOrder bool, lastTS *int64) lineproto.Point {
		var ts int64
		if inOrder {
			*lastTS += int64(rnd.Intn(5)) * 1e9
			ts = *lastTS
		} else {
			ts = int64(rnd.Intn(400)) * 1e9 // deliberately collides across batches
		}
		host := hosts[rnd.Intn(len(hosts))]
		fields := map[string]lineproto.Value{}
		if rnd.Intn(10) < 9 {
			fields["value"] = lineproto.Float(float64(rnd.Intn(10000)) / 7)
		}
		if rnd.Intn(10) < 5 {
			fields["ops"] = lineproto.Int(int64(rnd.Intn(1 << 40)))
		}
		if rnd.Intn(10) < 2 {
			fields["note"] = lineproto.String(fmt.Sprintf("ev-%d", rnd.Intn(5)))
		}
		if rnd.Intn(10) < 2 {
			fields["flag"] = lineproto.Bool(rnd.Intn(2) == 0)
		}
		if rnd.Intn(10) < 3 {
			// A field written with conflicting kinds: forces the mixed
			// column representation.
			if rnd.Intn(2) == 0 {
				fields["weird"] = lineproto.Float(float64(rnd.Intn(100)))
			} else {
				fields["weird"] = lineproto.String(fmt.Sprintf("w%d", rnd.Intn(3)))
			}
		}
		if len(fields) == 0 {
			fields["value"] = lineproto.Float(1)
		}
		return lineproto.Point{
			Measurement: "m",
			Tags:        map[string]string{"hostname": host, "rack": host[1:]},
			Fields:      fields,
			Time:        time.Unix(0, ts).UTC(),
		}
	}

	check := func(round int) {
		t.Helper()
		start := time.Unix(50, 0).UTC()
		end := time.Unix(300, 0).UTC()
		queries := []Query{
			{Measurement: "m"},
			{Measurement: "m", Limit: 13},
			{Measurement: "m", GroupByTags: []string{"hostname"}},
			{Measurement: "m", Cols: []AggCol{{Field: "note"}, {Field: "weird"}}},
			{Measurement: "m", Filter: TagFilter{"hostname": "h1"}, Start: start, End: end},
		}
		for _, agg := range allAggs {
			queries = append(queries,
				Query{Measurement: "m", Cols: star(agg, 90)},
				Query{Measurement: "m", Cols: star(agg, 37.5), Every: 30 * time.Second, GroupByTags: []string{"hostname"}},
				Query{Measurement: "m", Cols: star(agg, 75), Every: 45 * time.Second, Start: start, End: end, Limit: 4},
			)
		}
		for _, q := range queries {
			want := mo.naiveSelect(q)
			got, err := db.SelectContext(bg, q)
			if err != nil && err != ErrNoMeasurement {
				t.Fatalf("round %d: %v", round, err)
			}
			compareResults(t, fmt.Sprintf("round %d", round), oracleCols(q, mo.fieldNames()), want, got)
		}
	}

	lastTS := map[string]*int64{}
	for _, h := range hosts {
		v := int64(0)
		lastTS[h] = &v
	}
	for round := 0; round < 30; round++ {
		n := 1 + rnd.Intn(40)
		inOrder := rnd.Intn(3) > 0
		pts := make([]lineproto.Point, 0, n+1)
		for i := 0; i < n; i++ {
			p := makePoint(inOrder, lastTS[hosts[rnd.Intn(len(hosts))]])
			pts = append(pts, p)
		}
		// One globally unique timestamp per batch: the batch can then
		// never exactly rewrite an existing run, so the model (which has
		// no upsert semantics) stays a valid oracle. The rewrite path has
		// its own deterministic tests below.
		nextUnique += 1e9
		uniq := makePoint(false, nil)
		uniq.Time = time.Unix(0, nextUnique).UTC()
		pts = append(pts, uniq)

		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			mo.add(p)
		}
		// Randomly compress the sealed runs (DESIGN.md §13), exactly like
		// the background compactor would: answers must stay byte-identical
		// whether a run is raw or compressed, and later batches must still
		// merge with compressed runs. Each series' building run stays raw —
		// compressing it would shift where the exact-rewrite upsert
		// triggers, which the naive model cannot express.
		if crnd.Intn(3) == 0 {
			db.compressNow(maxInt64, true)
		}
		if round%5 == 4 || round == 29 {
			check(round)
		}
	}
}

// rewriteBatchPts builds one batch of n points on series host with fixed
// timestamps 0..n-1 seconds and the given field values.
func rewriteBatchPts(host string, n int, fields func(i int) map[string]lineproto.Value) []lineproto.Point {
	pts := make([]lineproto.Point, n)
	for i := range pts {
		pts[i] = lineproto.Point{
			Measurement: "m",
			Tags:        map[string]string{"hostname": host},
			Fields:      fields(i),
			Time:        time.Unix(int64(i), 0).UTC(),
		}
	}
	return pts
}

// TestSameTimestampRewrite pins the dedup-on-append fast path: a batch
// that re-writes the newest run's exact timestamps updates the stored
// values in place (last write wins, InfluxDB duplicate-point semantics)
// instead of accumulating duplicate rows.
func TestSameTimestampRewrite(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	const n = 10
	write := func(pts []lineproto.Point) {
		t.Helper()
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
	write(rewriteBatchPts("h1", n, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{
			"a": lineproto.Float(float64(i)),
			"b": lineproto.Int(int64(i) * 10),
		}
	}))
	// Rewrite every row of field a, leave b untouched.
	write(rewriteBatchPts("h1", n, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"a": lineproto.Float(float64(i) + 100)}
	}))

	if got := db.PointCount(); got != n {
		t.Fatalf("PointCount after rewrite = %d, want %d (no duplicate rows)", got, n)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != n {
		t.Fatalf("rows after rewrite: %+v", res)
	}
	for i, r := range res[0].Rows {
		// Columns sorted: a, b.
		if got := r.Values[0].FloatVal(); got != float64(i)+100 {
			t.Fatalf("row %d: a = %v, want %v (new value)", i, got, float64(i)+100)
		}
		if got := r.Values[1].IntVal(); got != int64(i)*10 {
			t.Fatalf("row %d: b = %v, want %v (field absent from rewrite keeps old value)", i, got, int64(i)*10)
		}
	}

	// A rewrite may also introduce a brand-new sparse field...
	write(rewriteBatchPts("h1", n, func(i int) map[string]lineproto.Value {
		f := map[string]lineproto.Value{"a": lineproto.Float(-1)}
		if i%3 == 0 {
			f["c"] = lineproto.String(fmt.Sprintf("mark-%d", i))
		}
		return f
	}))
	// ...and change a field's kind (b: int → string), forcing the mixed
	// representation.
	write(rewriteBatchPts("h1", n, func(i int) map[string]lineproto.Value {
		f := map[string]lineproto.Value{"a": lineproto.Float(-2)}
		if i == 4 {
			f["b"] = lineproto.String("overridden")
		}
		return f
	}))

	if got := db.PointCount(); got != n {
		t.Fatalf("PointCount after 4 rewrites = %d, want %d", got, n)
	}
	res, err = db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	rows := res[0].Rows
	if cols := res[0].Columns; !reflect.DeepEqual(cols, []string{"a", "b", "c"}) {
		t.Fatalf("columns = %v", cols)
	}
	for i, r := range rows {
		if got := r.Values[0].FloatVal(); got != -2 {
			t.Fatalf("row %d: a = %v, want -2", i, got)
		}
		if i == 4 {
			if got := r.Values[1].StringVal(); got != "overridden" {
				t.Fatalf("row 4: b = %v, want kind-changed string", r.Values[1])
			}
		} else if got := r.Values[1].IntVal(); got != int64(i)*10 {
			t.Fatalf("row %d: b = %v, want original int", i, r.Values[1])
		}
		if i%3 == 0 {
			if r.Values[2] == nil || r.Values[2].StringVal() != fmt.Sprintf("mark-%d", i) {
				t.Fatalf("row %d: c = %v", i, r.Values[2])
			}
		} else if r.Values[2] != nil {
			t.Fatalf("row %d: c should be absent, got %v", i, r.Values[2])
		}
	}
}

// TestSameTimestampRewriteDoesNotCrossSeries ensures the rewrite path is
// per series: the same timestamps on another tag set still append.
func TestSameTimestampRewriteDoesNotCrossSeries(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	mk := func(host string) []lineproto.Point {
		return rewriteBatchPts(host, 5, func(i int) map[string]lineproto.Value {
			return map[string]lineproto.Value{"v": lineproto.Float(float64(i))}
		})
	}
	if err := db.WriteBatchContext(bg, mk("h1")); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBatchContext(bg, mk("h2")); err != nil {
		t.Fatal(err)
	}
	if got := db.PointCount(); got != 10 {
		t.Fatalf("PointCount = %d, want 10 (two series)", got)
	}
}

// TestSameTimestampRewritePartialOverlapKeepsDuplicates pins the
// boundary: only an exact timestamp match takes the rewrite path; a batch
// overlapping the newest run partially keeps the historical
// duplicate-preserving log-structured behaviour.
func TestSameTimestampRewritePartialOverlapKeepsDuplicates(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	if err := db.WriteBatchContext(bg, rewriteBatchPts("h1", 5, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"v": lineproto.Float(1)}
	})); err != nil {
		t.Fatal(err)
	}
	// Rewrites t=0..3 only (4 of 5 timestamps): not an exact match.
	if err := db.WriteBatchContext(bg, rewriteBatchPts("h1", 4, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"v": lineproto.Float(2)}
	})); err != nil {
		t.Fatal(err)
	}
	if got := db.PointCount(); got != 9 {
		t.Fatalf("PointCount = %d, want 9 (partial overlap appends)", got)
	}
}

// TestConcurrentRewriteVsSelect races the copy-on-write rewrite path
// against raw and aggregating readers: a reader must always observe one
// coherent generation of the rewritten column (count stays fixed, the sum
// is a multiple of a single written value), never a torn mix. Run under
// -race this also proves the rewrite never mutates a snapshotted array.
func TestConcurrentRewriteVsSelect(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	const n = 50
	gen := func(v float64) []lineproto.Point {
		return rewriteBatchPts("h1", n, func(i int) map[string]lineproto.Value {
			return map[string]lineproto.Value{"v": lineproto.Float(v)}
		})
	}
	if err := db.WriteBatchContext(bg, gen(0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 1; g <= 200; g++ {
			if err := db.WriteBatchContext(bg, gen(float64(g))); err != nil {
				t.Errorf("rewrite: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggSum, 0)})
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				sum := res[0].Rows[0].Values[0].FloatVal()
				if v := sum / n; v != math.Trunc(v) || v < 0 || v > 200 {
					t.Errorf("torn rewrite snapshot: sum %v is not n×(one generation)", sum)
					return
				}
				cres, err := db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggCount, 0)})
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
				if got := cres[0].Rows[0].Values[0].IntVal(); got != n {
					t.Errorf("count = %d, want %d", got, n)
					return
				}
			}
		}()
	}
	// Let readers overlap the writer, then wind down.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	res, err := db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggSum, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].FloatVal(); got != 200*n {
		t.Fatalf("final sum = %v, want %v", got, 200*n)
	}
}

// TestColumnarCompactionMergesDisjointFields forces run compaction between
// runs with disjoint field sets and checks the merged columns via a raw
// select (presence bitmaps must track which side each row came from).
func TestColumnarCompactionMergesDisjointFields(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	w := func(tsec int64, field string, v lineproto.Value) {
		t.Helper()
		err := db.WriteBatchContext(bg, []lineproto.Point{{
			Measurement: "m",
			Tags:        map[string]string{"hostname": "h1"},
			Fields:      map[string]lineproto.Value{field: v},
			Time:        time.Unix(tsec, 0).UTC(),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order singles force new runs and immediate compaction.
	w(100, "a", lineproto.Float(1))
	w(50, "b", lineproto.Int(2))
	w(25, "c", lineproto.String("x"))
	w(10, "a", lineproto.Bool(true))

	res, err := db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 4 {
		t.Fatalf("res %+v", res)
	}
	if !reflect.DeepEqual(res[0].Columns, []string{"a", "b", "c"}) {
		t.Fatalf("columns %v", res[0].Columns)
	}
	type want struct {
		sec int64
		col int
		val lineproto.Value
	}
	wants := []want{
		{10, 0, lineproto.Bool(true)},
		{25, 2, lineproto.String("x")},
		{50, 1, lineproto.Int(2)},
		{100, 0, lineproto.Float(1)},
	}
	for ri, wnt := range wants {
		r := res[0].Rows[ri]
		if r.Time.Unix() != wnt.sec {
			t.Fatalf("row %d time %v, want %ds", ri, r.Time, wnt.sec)
		}
		for ci := 0; ci < 3; ci++ {
			if ci == wnt.col {
				if r.Values[ci] == nil || !r.Values[ci].Equal(wnt.val) {
					t.Fatalf("row %d col %d = %v, want %v", ri, ci, r.Values[ci], wnt.val)
				}
			} else if r.Values[ci] != nil {
				t.Fatalf("row %d col %d should be absent, got %v", ri, ci, r.Values[ci])
			}
		}
	}
}

// TestColumnarStringInterning checks that repeated string values resolve
// through the per-measurement intern table and round-trip exactly.
func TestColumnarStringInterning(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	var pts []lineproto.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, lineproto.Point{
			Measurement: "ev",
			Fields:      map[string]lineproto.Value{"text": lineproto.String(fmt.Sprintf("state-%d", i%3))},
			Time:        time.Unix(int64(i), 0).UTC(),
		})
	}
	if err := db.WriteBatchContext(bg, pts); err != nil {
		t.Fatal(err)
	}
	sh := db.shardFor("ev")
	sh.mu.RLock()
	nDistinct := len(sh.measurements["ev"].strs.vals)
	sh.mu.RUnlock()
	if nDistinct != 3 {
		t.Fatalf("interned strings = %d, want 3", nDistinct)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "ev"})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res[0].Rows {
		if got, want := r.Values[0].StringVal(), fmt.Sprintf("state-%d", i%3); got != want {
			t.Fatalf("row %d: %q, want %q", i, got, want)
		}
	}
}

// TestSameTimestampRewriteSinglePoint pins the simplest upsert the docs
// promise: re-writing one point (same series, same timestamp) replaces it
// instead of accumulating duplicates — the all-equal-timestamps run shape
// must take the rewrite path, not the in-order append.
func TestSameTimestampRewriteSinglePoint(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	p := func(v float64) lineproto.Point {
		return lineproto.Point{
			Measurement: "m",
			Tags:        map[string]string{"hostname": "h1"},
			Fields:      map[string]lineproto.Value{"v": lineproto.Float(v)},
			Time:        time.Unix(5, 0).UTC(),
		}
	}
	for i := 1; i <= 3; i++ {
		if err := db.WriteBatchContext(bg, []lineproto.Point{p(float64(i) * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.PointCount(); got != 1 {
		t.Fatalf("PointCount = %d, want 1 (repeated point upserts)", got)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rows) != 1 || res[0].Rows[0].Values[0].FloatVal() != 30 {
		t.Fatalf("rows = %+v, want single row v=30 (last write wins)", res[0].Rows)
	}
}

// TestSparseRunRollsOverPastLimit guards the quadratic-bitmap defence:
// once a run carrying presence bitmaps reaches maxSparseRunRows, further
// in-order blocks open a new run (bounded COW work per commit) instead of
// rebuilding the big run's bitmaps, and reads stay correct across the
// seam.
func TestSparseRunRollsOverPastLimit(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	const perBatch = 512
	total := maxSparseRunRows + 2*perBatch
	var notes int64
	for wrote := 0; wrote < total; wrote += perBatch {
		pts := make([]lineproto.Point, perBatch)
		for k := range pts {
			n := wrote + k
			fields := map[string]lineproto.Value{"v": lineproto.Float(float64(n))}
			if n%7 == 0 {
				fields["note"] = lineproto.String("ev")
				notes++
			}
			pts[k] = lineproto.Point{
				Measurement: "m",
				Tags:        map[string]string{"hostname": "h1"},
				Fields:      fields,
				Time:        time.Unix(int64(n), 0).UTC(),
			}
		}
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
	sh := db.shardFor("m")
	sh.mu.RLock()
	runs := len(sh.measurements["m"].series[seriesKey(map[string]string{"hostname": "h1"})].runs)
	sh.mu.RUnlock()
	if runs < 2 {
		t.Fatalf("runs = %d, want >= 2 (sparse run must roll over past %d rows)", runs, maxSparseRunRows)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m", Cols: []AggCol{{Field: "v", Agg: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].IntVal(); got != int64(total) {
		t.Fatalf("count(v) = %d, want %d", got, total)
	}
	res, err = db.SelectContext(bg, Query{Measurement: "m", Cols: []AggCol{{Field: "note", Agg: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].IntVal(); got != notes {
		t.Fatalf("count(note) = %d, want %d", got, notes)
	}
}
