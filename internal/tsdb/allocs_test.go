package tsdb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// allocFixture is the store the allocation gates run on: one shard and no
// result cache, so the counts are those of the storage paths alone; hosts
// series of rows points each (two float fields, one int, one interned
// string), one raw run per series.
func allocFixture(t *testing.T, hosts, rows int) *DB {
	t.Helper()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	for h := 0; h < hosts; h++ {
		pts := make([]lineproto.Point, rows)
		for i := range pts {
			pts[i] = lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": fmt.Sprintf("h%02d", h)},
				map[string]lineproto.Value{
					"user":  lineproto.Float(float64(i%13) + 0.25),
					"sys":   lineproto.Float(float64(i % 5)),
					"ctx":   lineproto.Int(int64(i) * 7),
					"state": lineproto.String([]string{"idle", "busy"}[i%2]),
				},
				time.Unix(int64(i)*10, 0),
			)
		}
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sealFixture cuts the head of each of the hosts series of
// allocFixture(db, hosts, rows) into a chunk with an in-order block of
// more rows, past everything stored: a head of its own behind the chunk.
func sealFixture(t *testing.T, db *DB, hosts, rows, more int) {
	t.Helper()
	for h := 0; h < hosts; h++ {
		pts := make([]lineproto.Point, more)
		for i := range pts {
			pts[i] = lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": fmt.Sprintf("h%02d", h)},
				map[string]lineproto.Value{"user": lineproto.Float(1), "ctx": lineproto.Int(2)},
				time.Unix(int64(rows+1+i)*10, 0),
			)
		}
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorageAllocs pins the allocation counts of the paths the column
// type crosses, write path to checkpoint, at the figures measured on the
// commit before it was introduced (in the comments; the bounds leave a
// little headroom). A wrapper that boxes a column, clones a header it used
// to alias or decodes into fresh arrays instead of the arena shows up here.
func TestStorageAllocs(t *testing.T) {
	const hosts, rows = 8, 2000
	windowed := Query{
		Measurement: "cpu",
		Cols:        []AggCol{{Field: "user", Agg: AggMean}, {Field: "ctx", Agg: AggMean}},
		Start:       time.Unix(0, 0),
		End:         time.Unix(rows*10, 0),
		GroupByTags: []string{"hostname"},
		Every:       10 * time.Minute,
	}
	selectAllocs := func(db *DB) float64 {
		return testing.AllocsPerRun(20, func() {
			if res, err := db.SelectContext(bg, windowed); err != nil || len(res) != hosts {
				t.Fatal(err, len(res))
			}
		})
	}

	t.Run("WriteBatch", func(t *testing.T) {
		// One collector flush: 100 points of one series, timestamps rising
		// past everything stored. The newest run holds sealRows rows or
		// more, so every batch cuts it and opens a run of its own, and the
		// cut merges the chunks behind it.
		db := allocFixture(t, 1, 100)
		pts := make([]lineproto.Point, 100)
		for i := range pts {
			pts[i] = lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": "h00"},
				map[string]lineproto.Value{
					"user": lineproto.Float(1), "sys": lineproto.Float(2),
					"ctx": lineproto.Int(3), "state": lineproto.String("idle"),
				},
				time.Time{},
			)
		}
		next := int64(100 * 10)
		write := func() {
			for i := range pts {
				pts[i].Time = time.Unix(next, 0)
				next += 10
			}
			if err := db.WriteBatchContext(bg, pts); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, write)
		t.Logf("%.1f allocs per 100-point in-order WriteBatch, its cut and merges included", allocs)
		if allocs > writeBatchAllocs {
			t.Fatalf("WriteBatch allocates %.1f times per 100-point batch, want <= %d", allocs, writeBatchAllocs)
		}
	})

	t.Run("select raw", func(t *testing.T) {
		allocs := selectAllocs(allocFixture(t, hosts, rows))
		t.Logf("%.0f allocs per windowed Select over %d raw runs", allocs, hosts)
		if allocs > selectRawAllocs {
			t.Fatalf("windowed Select over raw runs allocates %.0f times, want <= %d", allocs, selectRawAllocs)
		}
	})

	t.Run("select compressed", func(t *testing.T) {
		db := allocFixture(t, hosts, rows)
		// A row past the window cuts each series' head into a chunk.
		sealFixture(t, db, hosts, rows, 1)
		if got := db.compressionStats().chunks; got != hosts*5 {
			t.Fatalf("fixture holds %d column chunks, want one run of 5 per series", got)
		}
		selectAllocs(db) // warm the decode arena
		allocs := selectAllocs(db)
		t.Logf("%.0f allocs per windowed Select over %d compressed runs", allocs, hosts)
		if allocs > selectCompressedAllocs {
			t.Fatalf("windowed Select over compressed runs allocates %.0f times, want <= %d", allocs, selectCompressedAllocs)
		}
	})

	t.Run("buildSnapshot", func(t *testing.T) {
		// Half the runs heads, half chunks — every series a chunk and the
		// head that cut it: the per-run cost of capturing a checkpoint
		// image, fixed per-measurement work subtracted by measuring two
		// sizes.
		perRun := func(n int) float64 {
			db := allocFixture(t, n, 50)
			sealFixture(t, db, n, 50, 50)
			if st := db.compressionStats(); st.chunks == 0 || st.headBytes == 0 {
				t.Fatalf("fixture holds no mix of heads and chunks: %+v", st)
			}
			return testing.AllocsPerRun(20, func() { db.buildSnapshot() })
		}
		small, large := perRun(hosts), perRun(hosts*9)
		allocs := (large - small) / (2 * hosts * 8)
		t.Logf("%.2f allocs per run captured by buildSnapshot (%.0f for %d runs, %.0f for %d)", allocs, small, 2*hosts, large, 2*hosts*9)
		if allocs > buildSnapshotAllocsPerRun {
			t.Fatalf("buildSnapshot allocates %.2f times per run, want <= %.2f", allocs, buildSnapshotAllocsPerRun)
		}
	})
}

// collectorCycle is one host's 100-line collector flush at time sec: eight
// measurements — the 72 per-core lines are 72 series — one point per
// series, nine tags each as the router's enrichment leaves them.
func collectorCycle(sec int64) []lineproto.Point {
	var pts []lineproto.Point
	add := func(meas string, n int, fields map[string]lineproto.Value) {
		for i := 0; i < n; i++ {
			pts = append(pts, lineproto.NewPoint(
				meas,
				map[string]string{
					"hostname": "h017", "cluster": "emmy", "rack": "r07", "type": "node", "unit": fmt.Sprint(i),
					"jobid": "4711.master", "username": "user2", "queue": "batch", "project": "p1",
				},
				fields,
				time.Unix(sec, 0),
			))
		}
	}
	add("cpu_core", 72, map[string]lineproto.Value{"user": lineproto.Float(float64(sec)), "ctx": lineproto.Int(sec)})
	for i, meas := range []string{"mem", "net", "disk", "load", "ib", "lustre", "events"} {
		fields := map[string]lineproto.Value{"value": lineproto.Float(float64(i)), "state": lineproto.String("ok")}
		add(meas, 4, fields)
	}
	return pts
}

// TestFrameApplyAllocs pins what it costs to take a batch frame into the
// shards: checked, indexed by shard and applied from the frame's bytes,
// a cycle of 100 known series allocates no point, no map and no
// series-key string. (Decoding the same frame into points took 2 057
// allocations before a shard saw any of it.) What it does allocate is the
// cuts: every sealRows frames each series cuts its head into a chunk and
// merges the chunks behind it, so the count is amortized over a whole
// number of cuts.
func TestFrameApplyAllocs(t *testing.T) {
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	warm, runs := 130, 4*sealRows
	var frames [][]byte
	for i := int64(0); i < int64(warm+runs+1); i++ {
		frames = append(frames, durable.AppendBatch(nil, collectorCycle(i*10), 1))
	}
	apply := func() {
		fb, err := db.checkFrame(frames[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(fb.refs) != 100 || !fb.multi {
			t.Fatalf("fixture: %d points, multi-shard %v", len(fb.refs), fb.multi)
		}
		db.applyFrame(fb)
		fb.release()
		frames = frames[1:]
	}
	for i := 0; i < warm; i++ {
		apply()
	}
	allocs := testing.AllocsPerRun(runs, apply)
	t.Logf("%.1f allocs per 100-point collector frame checked and applied, cuts and merges included", allocs)
	if allocs > frameApplyAllocs {
		t.Fatalf("a known-series collector frame costs %.1f allocations to check and apply, want <= %d", allocs, frameApplyAllocs)
	}
	if n := db.PointCount(); n != 100*(warm+runs+1) {
		t.Fatalf("%d points stored, want %d", n, 100*(warm+runs+1))
	}
}

// The gates' bounds; the measurements are in the comments. The write gates
// cross seal boundaries: before the seal rule a series' run grew forever
// (a doubling now and then); now every sealRows rows cut the head into a
// chunk (CompRun, its columns, one allocation for every stream's bytes),
// start it afresh (its streams carved out of one allocation) and merge the
// chunks behind it.
const (
	// Measured 15.0 per 100-point batch (19-20 under -race, whose sync.Pool
	// drops puts), the cut's merges included: one cut per batch, and each
	// cut merges the chunk it made with the one before it when the two
	// share a size class — both decoded into the pooled arena, appended
	// onto one head, cut again, once per doubling of the chunk. 22.0 (25.0
	// under -race, bound 28) while the merges decoded into fresh arrays.
	// While a compaction job merged beside the write the two were gated
	// apart: 7 (10 under -race) for the write and 27.3 for the job's pass
	// after it, bounds 10 and 40; 0 (0.2: eight doublings in 200 batches, 3
	// under -race) before the seal rule, 3 before the frame path.
	writeBatchAllocs = 23
	// Measured 950 over one head per series, 945 while the head was raw
	// (944 before the series key escaped tag bytes): a head snapshot takes
	// two allocations, the decoded views come from the arena.
	selectRawAllocs = 960
	// Measured 934, 945 before the column views came from the arena: a
	// warm arena decodes for free.
	selectCompressedAllocs = 960
	// Measured 2.06 per run over a chunk and a head per series, the head
	// copied out as a chunk (CompRun, its columns, its bytes); 1.09 while
	// the raw head's headers were held for an encode outside the lock; 1.67
	// per series (1.5 runs, a third raw) before the head stayed raw, 1.62
	// before every raw run was held for its encode.
	buildSnapshotAllocsPerRun = 4.75
	// Measured 41.0 over 128 frames (46-47 under -race), four cuts of each
	// of the 100 series and their merges included, the merges decoding into
	// the pooled arena; 55.0 (57.0 under -race, bound 64) while they
	// decoded into fresh arrays. While a compaction job merged beside the
	// write: 17.0 for the write (19 under -race; 4 per frame plus 4 per cut
	// of each series) and 39.3 for the job, bounds 24 and 70; 20.0 while a
	// seal opened a raw run presized for 32 rows.
	// Before the seal rule 6.0 over the same frames (4 plus a doubling of
	// every series' arrays at 257 rows), 14.0 over the first 256, 5 in its
	// own window under -race; DecodeBatch + applyBatch took 2 060.
	frameApplyAllocs = 54
)
