package tsdb

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
)

// The tests in this file exercise the sharded write path under goroutine
// fan-out and are meant to run under the race detector (go test -race).

func concPoint(meas, host string, i int) lineproto.Point {
	return lineproto.Point{
		Measurement: meas,
		Tags:        map[string]string{"hostname": host},
		Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
		Time:        time.Unix(int64(i), 0),
	}
}

// TestDBConcurrentWriters checks that parallel writers on distinct and
// shared measurements lose no points across shards.
func TestDBConcurrentWriters(t *testing.T) {
	t.Parallel()
	const (
		writers = 8
		batches = 25
		perB    = 20
	)
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Even writers share one hot measurement, odd writers get
			// their own, so both the contended and the spread shard
			// paths are exercised.
			meas := "shared"
			if w%2 == 1 {
				meas = fmt.Sprintf("meas%02d", w)
			}
			host := fmt.Sprintf("host%02d", w)
			for bi := 0; bi < batches; bi++ {
				pts := make([]lineproto.Point, perB)
				for i := range pts {
					pts[i] = concPoint(meas, host, bi*perB+i)
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := db.PointCount(), writers*batches*perB; got != want {
		t.Fatalf("PointCount = %d, want %d", got, want)
	}
	// Every odd writer's measurement must be visible, plus the shared one.
	meas := db.Measurements()
	if want := writers/2 + 1; len(meas) != want {
		t.Fatalf("Measurements = %v, want %d entries", meas, want)
	}
	for _, m := range meas {
		res, err := db.SelectContext(bg, Query{Measurement: m})
		if err != nil {
			t.Fatalf("Select(%s): %v", m, err)
		}
		if len(res) == 0 {
			t.Fatalf("Select(%s): no series", m)
		}
	}
}

// TestDBConcurrentWriteReadDrop runs writers, readers and a dropper
// side by side: the store must stay consistent (no lost updates outside the
// dropped window, no panics, race-free under -race).
func TestDBConcurrentWriteReadDrop(t *testing.T) {
	t.Parallel()
	const (
		writers = 4
		readers = 4
		rounds  = 50
	)
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			meas := fmt.Sprintf("cpu%02d", w)
			for i := 0; i < rounds; i++ {
				pts := []lineproto.Point{
					concPoint(meas, "h1", i),
					concPoint(meas, "h2", i),
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.PointCount()
				db.Measurements()
				db.TagValues("", "hostname")
				meas := fmt.Sprintf("cpu%02d", r%writers)
				if _, err := db.SelectContext(bg, Query{
					Measurement: meas,
					Cols:        star(AggMean, 0),
					Every:       10 * time.Second,
				}); err != nil && err != ErrNoMeasurement {
					t.Errorf("select: %v", err)
					return
				}
				db.FieldKeys(meas)
				db.TagKeys(meas)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Drops roughly the first half of each writer's window while
			// writes are still in flight.
			db.DropBefore(time.Unix(int64(rounds/2), 0))
		}
	}()

	// Wait for the writers first, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	// After a final drop the surviving points are exactly the second half
	// of each series.
	db.DropBefore(time.Unix(int64(rounds/2), 0))
	want := writers * 2 * (rounds - rounds/2)
	if got := db.PointCount(); got != want {
		t.Fatalf("PointCount after drop = %d, want %d", got, want)
	}
}

// TestDBConcurrentRetentionWrites checks the lazy per-shard pruning under
// concurrent batch writes.
func TestDBConcurrentRetentionWrites(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 2})
	db.SetRetention(time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			meas := fmt.Sprintf("m%d", w)
			for i := 0; i < 100; i++ {
				if err := db.WriteBatchContext(bg, []lineproto.Point{concPoint(meas, "h", i)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if db.PointCount() == 0 {
		t.Fatal("no points survived retention writes")
	}
}

// TestRetentionPrunesIdleShards guards the retention sweep: a write to one
// shard must expire old data living in *other* shards, not only its own
// (the retention ticker sweeps every shard against the newest point of any).
func TestRetentionPrunesIdleShards(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	db.SetRetention(time.Hour)
	old := concPoint("oldmeas", "h", 0)
	old.Time = time.Unix(100, 0)
	if err := db.WriteBatchContext(bg, []lineproto.Point{old}); err != nil {
		t.Fatal(err)
	}
	// Pick a measurement that hashes into a different shard, then write a
	// point two hours newer there.
	fresh := "fresh"
	for i := 0; db.shardIndex(fresh) == db.shardIndex("oldmeas"); i++ {
		fresh = fmt.Sprintf("fresh%d", i)
	}
	p := concPoint(fresh, "h", 0)
	p.Time = time.Unix(100, 0).Add(2 * time.Hour)
	if err := db.WriteBatchContext(bg, []lineproto.Point{p}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for deadline := time.Now().Add(10 * time.Second); slices.Contains(db.Measurements(), "oldmeas"); {
		if time.Now().After(deadline) {
			t.Fatalf("expired measurement in an idle shard was not pruned: %v", db.Measurements())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := db.PointCount(); got != 1 {
		t.Fatalf("PointCount = %d, want 1 (only the fresh point)", got)
	}
}

// TestDBConcurrentSelectVsWriteBatchOneShard drives the lock-light read
// path head-on against the write path inside a single lock domain: one
// shard, every query and every batch on the same measurements, raw /
// windowed / total / percentile query shapes, in-order and out-of-order
// batches (the copy-on-reorder path). Must be race-clean and the final
// state consistent.
func TestDBConcurrentSelectVsWriteBatchOneShard(t *testing.T) {
	t.Parallel()
	const (
		writers = 4
		readers = 4
		batches = 40
		perB    = 25
	)
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0) // exercise the engine, not the cache
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			meas := fmt.Sprintf("cpu%02d", w%2) // two measurements, one shard
			host := fmt.Sprintf("h%d", w)
			for bi := 0; bi < batches; bi++ {
				pts := make([]lineproto.Point, perB)
				for i := range pts {
					n := bi*perB + i
					if bi%3 == 2 {
						// Every third batch arrives in reverse order to
						// force the merge-into-fresh-array write path under
						// concurrent snapshots.
						n = bi*perB + (perB - 1 - i)
					}
					pts[i] = concPoint(meas, host, n)
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	queries := []Query{
		{Measurement: "cpu00"},
		{Measurement: "cpu01", Limit: 10},
		{Measurement: "cpu00", Cols: star(AggMean, 0), Every: 10 * time.Second, GroupByTags: []string{"hostname"}},
		{Measurement: "cpu01", Cols: star(AggPercentile, 95)},
		{Measurement: "cpu00", Cols: star(AggSum, 0), Start: time.Unix(100, 0), End: time.Unix(800, 0)},
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(r+i)%len(queries)]
				res, err := db.SelectContext(bg, q)
				if err != nil && err != ErrNoMeasurement {
					t.Errorf("select: %v", err)
					return
				}
				// Snapshot consistency: rows of every series must be sorted
				// even while writers reorder concurrently.
				for _, s := range res {
					for j := 1; j < len(s.Rows); j++ {
						if s.Rows[j].Time.Before(s.Rows[j-1].Time) {
							t.Errorf("unsorted snapshot rows in %v", s.Tags)
							return
						}
					}
				}
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	if got, want := db.PointCount(), writers*batches*perB; got != want {
		t.Fatalf("PointCount = %d, want %d", got, want)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu00", Cols: star(AggCount, 0), GroupByTags: []string{"hostname"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res {
		if got := s.Rows[0].Values[0].IntVal(); got != batches*perB {
			t.Fatalf("series %v count = %d, want %d", s.Tags, got, batches*perB)
		}
	}
}

// TestStoreConcurrentCreateDrop hammers the store-level database map.
func TestStoreConcurrentCreateDrop(t *testing.T) {
	t.Parallel()
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("db%d", i%5)
				db := s.CreateDatabase(name)
				if err := db.WriteBatchContext(bg, []lineproto.Point{concPoint("cpu", "h", i)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				s.DB(name)
				s.Databases()
				if w == 0 && i%10 == 9 {
					s.DropDatabase(name)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWriteBatchOutOfOrder guards the per-series append buffer: a batch
// whose timestamps interleave and regress must still read back fully
// sorted.
func TestWriteBatchOutOfOrder(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	var pts []lineproto.Point
	// Two series interleaved, timestamps deliberately regressing.
	for _, i := range []int{5, 3, 9, 1, 7, 2} {
		pts = append(pts, concPoint("cpu", "h1", i), concPoint("cpu", "h2", 100-i))
	}
	if err := db.WriteBatchContext(bg, pts); err != nil {
		t.Fatal(err)
	}
	// A second batch older than everything already stored.
	if err := db.WriteBatchContext(bg, []lineproto.Point{concPoint("cpu", "h1", 0)}); err != nil {
		t.Fatal(err)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu", GroupByTags: []string{"hostname"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("series = %d, want 2", len(res))
	}
	for _, s := range res {
		for i := 1; i < len(s.Rows); i++ {
			if s.Rows[i].Time.Before(s.Rows[i-1].Time) {
				t.Fatalf("series %v rows not sorted: %v before %v",
					s.Tags, s.Rows[i].Time, s.Rows[i-1].Time)
			}
		}
	}
}

// TestShardDistribution sanity-checks that multiple measurements spread
// over more than one shard (FNV should not degenerate).
func TestShardDistribution(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	if db.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", db.ShardCount())
	}
	used := map[int]bool{}
	for i := 0; i < 32; i++ {
		used[db.shardIndex(fmt.Sprintf("measurement%02d", i))] = true
	}
	if len(used) < 2 {
		t.Fatalf("32 measurements landed in %d shard(s)", len(used))
	}
}
