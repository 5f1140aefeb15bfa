package tsdb

import (
	"testing"
	"time"

	"repro/internal/lineproto"
)

// TestMergedAtEveryWrite: chunks merge where a write or a sweep changes
// them, under the lock that change holds, so the layout after every batch
// is the settled one — no span left for a later pass, and Compress finds
// nothing — through in-order cuts past maxChunkRows rows, an exact rewrite
// of the head, retention sweeps that cut a chunk, a late block that absorbs
// a short chunk, and the cuts after it.
func TestMergedAtEveryWrite(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	settled := func(when, want string) {
		t.Helper()
		if n := pendingSpans(db); n != 0 {
			t.Fatalf("%s: %d spans left to merge:\n%s", when, n, runLayout(db))
		}
		if n := db.Compress(); n != 0 {
			t.Fatalf("%s: Compress merged %d chunks", when, n)
		}
		if got := runLayout(db); want != "" && got != "cpu hostname=h1: "+want {
			t.Fatalf("%s: layout %s, want %s", when, got, want)
		}
	}
	// write stores rows [lo, hi) at row*10 s plus off, value v.
	write := func(when string, lo, hi int, off time.Duration, v float64) {
		t.Helper()
		var pts []lineproto.Point
		for r := lo; r < hi; r++ {
			pts = append(pts, lineproto.NewPoint("cpu", map[string]string{"hostname": "h1"},
				map[string]lineproto.Value{"v": lineproto.Float(v), "r": lineproto.Int(int64(r))},
				time.Unix(int64(r)*10, 0).Add(off)))
		}
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
		settled(when, "")
	}
	at := func(row int) time.Time { return time.Unix(int64(row)*10, 0) }

	// 8-row batches: every fourth cuts a 32-row head, and the chunks double
	// up to maxChunkRows.
	for lo := 0; lo < 1100; lo += 8 {
		write("in-order cuts", lo, min(lo+8, 1100), 0, 1)
	}
	settled("after 1 100 in-order rows", "1024c 64c 12h")
	write("an exact rewrite of the head", 1088, 1100, 0, 2)
	settled("after the rewrite", "1024c 64c 12h")
	if got := db.PointCount(); got != 1100 {
		t.Fatalf("the exact rewrite stored %d rows, want 1100", got)
	}

	// A cutoff inside the 1024-row chunk leaves 80 rows, the class of the
	// 64-row chunk after it: the sweep merges the two.
	db.DropBefore(at(944))
	settled("after a sweep that cut a chunk", "144c 12h")
	// A cutoff near the end of that chunk leaves it short.
	db.DropBefore(at(1080))
	settled("after a sweep that left a short chunk", "8c 12h")
	write("a late block", 1090, 1094, 5*time.Second, 3)
	settled("after the late block absorbed the short chunk", "24h")
	for lo := 1100; lo < 1300; lo += 8 {
		write("in-order cuts after the late block", lo, lo+8, 0, 4)
	}
	settled("after 200 more in-order rows", "128c 64c 32h")

	res, err := db.SelectContext(bg, Query{Measurement: "cpu", Cols: []AggCol{{Field: "r", Agg: AggCount}, {Field: "v", Agg: AggSum}}})
	if err != nil {
		t.Fatal(err)
	}
	// Kept: rows 1080-1087 at 1, the rewritten 1088-1099 at 2, the late
	// block at 3 and the last 200 rows at 4.
	if count, sum := res[0].Rows[0].Values[0].IntVal(), res[0].Rows[0].Values[1].FloatVal(); count != 224 || sum != 8+12*2+4*3+200*4 {
		t.Fatalf("count(r) = %d, sum(v) = %v; want 224 and %d", count, sum, 8+12*2+4*3+200*4)
	}
}
