package tsdb_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// ExampleQuery shows the programmatic read path: write a small batch, then
// aggregate it into aligned one-minute windows with DB.SelectContext.
func ExampleQuery() {
	ctx := context.Background()
	db := tsdb.NewStore().CreateDatabase("lms")
	var pts []lineproto.Point
	for i := 0; i < 4; i++ {
		pts = append(pts, lineproto.NewPoint(
			"cpu",
			map[string]string{"hostname": "node01"},
			map[string]lineproto.Value{"percent": lineproto.Float(float64(80 + i))},
			time.Unix(int64(i*30), 0).UTC(),
		))
	}
	if err := db.WriteBatchContext(ctx, pts); err != nil {
		fmt.Println(err)
		return
	}
	res, err := db.SelectContext(ctx, tsdb.Query{
		Measurement: "cpu",
		Cols:        []tsdb.AggCol{{Field: "percent", Agg: tsdb.AggMean}},
		Every:       time.Minute,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, row := range res[0].Rows {
		fmt.Printf("%s mean=%.1f\n", row.Time.Format("15:04:05"), row.Values[0].FloatVal())
	}
	// Output:
	// 00:00:00 mean=80.5
	// 00:01:00 mean=82.5
}

// ExampleParseQuery shows the InfluxQL layer on top of the same engine:
// the statements a dashboard panel would send to /query.
func ExampleParseQuery() {
	store := tsdb.NewStore()
	var pts []lineproto.Point
	for i := 0; i < 4; i++ {
		pts = append(pts, lineproto.NewPoint(
			"likwid_mem_dp",
			map[string]string{"hostname": "node01"},
			map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(9000 + float64(100*i))},
			time.Unix(int64(i*60), 0).UTC(),
		))
	}
	if err := store.CreateDatabase("lms").WriteBatchContext(context.Background(), pts); err != nil {
		fmt.Println(err)
		return
	}
	stmts, err := tsdb.ParseQuery(
		"SELECT max(dp_mflop_s) FROM likwid_mem_dp WHERE hostname = 'node01' GROUP BY time(120s)")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := tsdb.ExecuteContext(context.Background(), store, "lms", stmts[0], "")
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, vals := range res.Series[0].Values {
		fmt.Println(vals[0], vals[1])
	}
	// Output:
	// 1970-01-01T00:00:00Z 9100
	// 1970-01-01T00:02:00Z 9300
}
