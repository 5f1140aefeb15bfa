package tsdb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// allocFixture is the store the allocation gates run on: one shard, the
// serial query engine and no result cache, so the counts are those of the
// storage paths alone; hosts series of rows points each (two float fields,
// one int, one interned string), one raw run per series.
func allocFixture(t *testing.T, hosts, rows int) *DB {
	t.Helper()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1, QueryWorkersPerDB: 1})
	db.SetQueryCacheTTL(0)
	for h := 0; h < hosts; h++ {
		pts := make([]lineproto.Point, rows)
		for i := range pts {
			pts[i] = lineproto.Point{
				Measurement: "cpu",
				Tags:        map[string]string{"hostname": fmt.Sprintf("h%02d", h)},
				Fields: map[string]lineproto.Value{
					"user":  lineproto.Float(float64(i%13) + 0.25),
					"sys":   lineproto.Float(float64(i % 5)),
					"ctx":   lineproto.Int(int64(i) * 7),
					"state": lineproto.String([]string{"idle", "busy"}[i%2]),
				},
				Time: time.Unix(int64(i)*10, 0),
			}
		}
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
	return db
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
		// past everything stored, appended onto the series' newest run.
		db := allocFixture(t, 1, 100)
		pts := make([]lineproto.Point, 100)
		for i := range pts {
			pts[i] = lineproto.Point{
				Measurement: "cpu",
				Tags:        map[string]string{"hostname": "h00"},
				Fields: map[string]lineproto.Value{
					"user": lineproto.Float(1), "sys": lineproto.Float(2),
					"ctx": lineproto.Int(3), "state": lineproto.String("idle"),
				},
			}
		}
		next := int64(100 * 10)
		allocs := testing.AllocsPerRun(200, func() {
			for i := range pts {
				pts[i].Time = time.Unix(next, 0)
				next += 10
			}
			if err := db.WriteBatchContext(bg, pts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocs per 100-point in-order WriteBatch", allocs)
		if allocs > writeBatchAllocs {
			t.Fatalf("WriteBatch allocates %.0f times per 100-point batch, want <= %d", allocs, writeBatchAllocs)
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
		if db.Compress() != hosts {
			t.Fatal("fixture did not compress to one chunk per series")
		}
		selectAllocs(db) // warm the decode arena
		allocs := selectAllocs(db)
		t.Logf("%.0f allocs per windowed Select over %d compressed runs", allocs, hosts)
		if allocs > selectCompressedAllocs {
			t.Fatalf("windowed Select over compressed runs allocates %.0f times, want <= %d", allocs, selectCompressedAllocs)
		}
	})

	t.Run("buildSnapshot", func(t *testing.T) {
		// Half the runs raw, half compressed: the per-run cost of capturing
		// a checkpoint image, fixed per-measurement work subtracted by
		// measuring two sizes.
		perRun := func(n int) float64 {
			db := allocFixture(t, n, 50)
			db.Compress()
			for h := 1; h < n; h += 2 {
				// A block as large as the chunk next to it: compaction merges
				// the two into one raw run.
				pts := make([]lineproto.Point, 50)
				for i := range pts {
					pts[i] = lineproto.Point{
						Measurement: "cpu",
						Tags:        map[string]string{"hostname": fmt.Sprintf("h%02d", h)},
						Fields:      map[string]lineproto.Value{"user": lineproto.Float(1), "ctx": lineproto.Int(2)},
						Time:        time.Unix(int64(50+i)*10, 0),
					}
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Fatal(err)
				}
			}
			if st := db.compressionStats(); st.chunks == 0 || st.buildingBytes == 0 {
				t.Fatalf("fixture holds no mix of raw and compressed runs: %+v", st)
			}
			return testing.AllocsPerRun(20, func() { db.buildSnapshot() })
		}
		small, large := perRun(hosts), perRun(hosts*9)
		allocs := (large - small) / (hosts * 8)
		t.Logf("%.2f allocs per run captured by buildSnapshot (%.0f for %d runs, %.0f for %d)", allocs, small, hosts, large, hosts*9)
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
			pts = append(pts, lineproto.Point{
				Measurement: meas,
				Tags: map[string]string{
					"hostname": "h017", "cluster": "emmy", "rack": "r07", "type": "node", "unit": fmt.Sprint(i),
					"jobid": "4711.master", "username": "user2", "queue": "batch", "project": "p1",
				},
				Fields: fields,
				Time:   time.Unix(sec, 0),
			})
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
// a cycle of 100 known series allocates next to nothing — no point, no
// map, no series-key string. (Decoding the same frame into points took
// 2 057 allocations before a shard saw any of it.)
func TestFrameApplyAllocs(t *testing.T) {
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	const warm, runs = 130, 100 // the runs' slices last doubled at 129 rows and hold 256
	var frames [][]byte
	for i := int64(0); i < warm+runs+1; i++ {
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
	t.Logf("%.1f allocs per 100-point collector frame checked and applied", allocs)
	if allocs > frameApplyAllocs {
		t.Fatalf("a known-series collector frame costs %.1f allocations to check and apply, want <= %d", allocs, frameApplyAllocs)
	}
	if n := db.PointCount(); n != 100*(warm+runs+1) {
		t.Fatalf("%d points stored, want %d", n, 100*(warm+runs+1))
	}
}

// The gates' bounds; the parent commit's measurements are in the comments.
const (
	writeBatchAllocs          = 4    // measured 3 for applyBatch alone, which this path (encode, check, apply) replaced
	selectRawAllocs           = 960  // measured 941
	selectCompressedAllocs    = 960  // measured 941, the same: a warm arena decodes for free
	buildSnapshotAllocsPerRun = 4.75 // measured 4.56
	frameApplyAllocs          = 10   // measured 4; DecodeBatch + applyBatch took 2 060
)
