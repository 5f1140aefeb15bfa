package tsdb

// Tests of the durable storage engine (persist.go, DESIGN.md §9): clean
// close/reopen round trips, the crash-injection harness (torn WAL tails
// at randomized offsets, recovered state held byte-identical to the
// acknowledged prefix via /query JSON), checkpoint+replay oracles against
// an in-memory store, on-disk retention expiry and race coverage of
// checkpoints vs concurrent writers.

import (
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// corpusBatches builds a deterministic write sequence covering every
// columnar write shape: in-order appends, out-of-order runs (compaction),
// exact-timestamp rewrites (upsert), sparse string/event columns, mixed
// kinds and multi-measurement batches.
func corpusBatches() [][]lineproto.Point {
	base := int64(1600000000_000000000)
	at := func(s int64) time.Time { return time.Unix(0, base+s*int64(time.Second)).UTC() }
	cpu := func(host string, sec int64, user float64, ctx int64) lineproto.Point {
		return lineproto.NewPoint(
			"cpu",
			map[string]string{"hostname": host},
			map[string]lineproto.Value{
				"user": lineproto.Float(user),
				"ctx":  lineproto.Int(ctx),
			},
			at(sec),
		)
	}
	var batches [][]lineproto.Point
	// 1-4: the in-order agent pattern, two hosts, two flushes each.
	for flush := int64(0); flush < 2; flush++ {
		for _, host := range []string{"h1", "h2"} {
			var b []lineproto.Point
			for i := int64(0); i < 25; i++ {
				s := flush*25 + i
				b = append(b, cpu(host, s, float64(s)+0.5, s*3))
			}
			batches = append(batches, b)
		}
	}
	// 5: out of order — opens a new run and compacts.
	batches = append(batches, []lineproto.Point{
		cpu("h1", -30, 1.25, -7), cpu("h1", -20, 2.5, 0), cpu("h1", 10, 99, 42),
	})
	// 6: exact-timestamp rewrite of the newest h2 run (upsert semantics).
	var rw []lineproto.Point
	for i := int64(25); i < 50; i++ {
		rw = append(rw, cpu("h2", i, 1000+float64(i), i))
	}
	batches = append(batches, rw)
	// 7: sparse events — msg only on some rows, code on others.
	ev := func(sec int64, fields map[string]lineproto.Value) lineproto.Point {
		return lineproto.NewPoint(
			"events",
			map[string]string{"hostname": "h1", "jobid": "42"},
			fields,
			at(sec),
		)
	}
	batches = append(batches, []lineproto.Point{
		ev(1, map[string]lineproto.Value{"msg": lineproto.String("job started")}),
		ev(2, map[string]lineproto.Value{"code": lineproto.Float(0)}),
		ev(3, map[string]lineproto.Value{"msg": lineproto.String("phase"), "code": lineproto.Float(1)}),
		ev(9, map[string]lineproto.Value{"msg": lineproto.String("job started")}), // repeated interned string
	})
	// 8: mixed kinds — v flips float -> int -> bool across batches.
	mix := func(sec int64, v lineproto.Value) lineproto.Point {
		return lineproto.NewPoint("mixm", nil, map[string]lineproto.Value{"v": v}, at(sec))
	}
	batches = append(batches,
		[]lineproto.Point{mix(1, lineproto.Float(1.5)), mix(2, lineproto.Float(2.5))},
		[]lineproto.Point{mix(3, lineproto.Int(3)), mix(4, lineproto.Bool(true))},
	)
	// 9: multi-measurement batch crossing shards.
	batches = append(batches, []lineproto.Point{
		cpu("h3", 60, 1, 1),
		lineproto.NewPoint(
			"mem",
			map[string]string{"hostname": "h3"},
			map[string]lineproto.Value{"used_kb": lineproto.Float(4096)},
			at(60),
		),
		cpu("h3", 61, 2, 2),
	})
	return batches
}

var corpusQueries = []string{
	"SELECT * FROM cpu",
	"SELECT user FROM cpu WHERE hostname = 'h1' LIMIT 7",
	"SELECT mean(user) FROM cpu GROUP BY time(10s), hostname",
	"SELECT max(ctx) FROM cpu GROUP BY hostname",
	"SELECT percentile(user, 90) FROM cpu",
	"SELECT * FROM events",
	"SELECT msg FROM events WHERE jobid = '42'",
	"SELECT * FROM mixm",
	"SELECT * FROM mem",
	"SHOW MEASUREMENTS",
	"SHOW FIELD KEYS FROM cpu",
	"SHOW TAG VALUES FROM cpu WITH KEY = hostname",
}

// queryFingerprint renders every corpus query through the HTTP handler
// and concatenates the raw JSON bodies: the byte-identity oracle of the
// recovery tests.
func queryFingerprint(t *testing.T, store *Store, db string) string {
	t.Helper()
	h := NewHandler(store)
	var sb strings.Builder
	for _, q := range corpusQueries {
		req := httptest.NewRequest("GET",
			"/query?db="+url.QueryEscape(db)+"&q="+url.QueryEscape(q)+"&epoch=ns", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("query %q: status %d: %s", q, rec.Code, rec.Body.String())
		}
		fmt.Fprintf(&sb, "-- %s\n%s\n", q, rec.Body.String())
	}
	return sb.String()
}

// memoryOracle builds an in-memory store holding the given batch prefix.
func memoryOracle(t *testing.T, batches [][]lineproto.Point) *Store {
	t.Helper()
	st := NewStore()
	st.ShardsPerDB = 4
	db := st.CreateDatabase("lms")
	for _, b := range batches {
		if err := db.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func openDurableStore(t *testing.T, d Durability) *Store {
	t.Helper()
	st, err := OpenStore(StoreOptions{ShardsPerDB: 4, Durability: d})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDurableCloseReopenByteIdentical is the clean restart round trip:
// ingest the corpus, Close (final checkpoint), reopen, and every /query
// response must be byte-identical — to the pre-restart store and to an
// in-memory oracle that never touched disk.
func TestDurableCloseReopenByteIdentical(t *testing.T) {
	dir := t.TempDir()
	batches := corpusBatches()

	st := openDurableStore(t, Durability{Dir: dir})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := db.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	before := queryFingerprint(t, st, "lms")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDurableStore(t, Durability{Dir: dir})
	after := queryFingerprint(t, st2, "lms")
	if after != before {
		t.Fatal("recovered /query responses differ from pre-restart responses")
	}
	if oracle := queryFingerprint(t, memoryOracle(t, batches), "lms"); after != oracle {
		t.Fatal("recovered /query responses differ from the in-memory oracle")
	}
	// Writes keep working after recovery and survive a second restart.
	db2 := st2.DB("lms")
	if err := db2.WriteBatchContext(bg, batches[len(batches)-1]); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openDurableStore(t, Durability{Dir: dir})
	if got, want := st3.DB("lms").PointCount(), db2.PointCount(); got != want {
		t.Fatalf("third open PointCount = %d, want %d", got, want)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointPlusReplayOracle crashes (no final checkpoint)
// with half the corpus behind a checkpoint and half only in the WAL:
// recovery must stitch both together byte-identically.
func TestDurableCheckpointPlusReplayOracle(t *testing.T) {
	dir := t.TempDir()
	batches := corpusBatches()
	half := len(batches) / 2

	st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:half] {
		if err := db.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[half:] {
		if err := db.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	st.Abort() // crash: the tail lives only in the WAL

	st2 := openDurableStore(t, Durability{Dir: dir})
	got := queryFingerprint(t, st2, "lms")
	want := queryFingerprint(t, memoryOracle(t, batches), "lms")
	if got != want {
		t.Fatal("checkpoint+WAL recovery differs from the in-memory oracle")
	}
	st2.Abort()
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashRecoveryTornTail is the crash-injection harness of the
// issue: the WAL is cut at randomized byte offsets — including mid-frame,
// producing a torn final record — and the recovered /query responses must
// be byte-identical to an in-memory oracle holding exactly the batches
// whose WAL frames survived the cut (the acknowledged prefix).
func TestDurableCrashRecoveryTornTail(t *testing.T) {
	master := t.TempDir()
	batches := corpusBatches()

	st := openDurableStore(t, Durability{Dir: master, Fsync: durable.FsyncOff})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, 0, len(batches)) // WAL offset just past each batch's frame
	for _, b := range batches {
		if err := db.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, db.dur.wal.TotalSize())
	}
	seg := db.dur.wal.CurrentSegment()
	if seg != 1 {
		t.Fatalf("corpus spilled to segment %d; the harness assumes one segment", seg)
	}
	segFile := db.dur.wal.SegmentPath(seg)
	segRel, err := filepath.Rel(master, segFile)
	if err != nil {
		t.Fatal(err)
	}
	st.Abort()
	info, err := os.Stat(segFile)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := info.Size()

	rng := rand.New(rand.NewSource(5)) // deterministic "randomized offsets"
	cuts := []int64{0, 3, ends[0] - 1, ends[0], fileSize - 1, fileSize}
	for i := 0; i < 10; i++ {
		cuts = append(cuts, rng.Int63n(fileSize+1))
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, master, dir)
			if err := os.Truncate(filepath.Join(dir, segRel), cut); err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, end := range ends {
				if end <= cut {
					acked++
				}
			}
			st2 := openDurableStore(t, Durability{Dir: dir})
			got := queryFingerprint(t, st2, "lms")
			want := queryFingerprint(t, memoryOracle(t, batches[:acked]), "lms")
			if got != want {
				t.Errorf("cut at %d (%d/%d batches acked): recovered state differs from oracle",
					cut, acked, len(batches))
			}
			st2.Abort()
		})
	}
}

// TestDurableRetentionDeletesOnDiskState: a retention sweep that dropped
// rows must also shrink the disk — the scheduled checkpoint excludes the
// expired blocks and deletes the covered WAL segments.
func TestDurableRetentionDeletesOnDiskState(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{
		Dir:                      dir,
		Fsync:                    durable.FsyncOff,
		RetentionCheckpointEvery: time.Millisecond,
	})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	old := lineproto.NewPoint(
		"cpu",
		nil,
		map[string]lineproto.Value{"v": lineproto.Float(1)},
		now.Add(-2*time.Hour),
	)
	fresh := lineproto.NewPoint(
		"cpu",
		nil,
		map[string]lineproto.Value{"v": lineproto.Float(2)},
		now,
	)
	if err := db.WriteBatchContext(bg, []lineproto.Point{old, fresh}); err != nil {
		t.Fatal(err)
	}
	if got := db.PointCount(); got != 2 {
		t.Fatalf("PointCount before sweep = %d, want 2", got)
	}
	walSizeBefore := db.dur.wal.TotalSize()
	db.setRetention(time.Hour) // ticker sweeps at 1s period

	deadline := time.Now().Add(10 * time.Second)
	for db.PointCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("ticker sweep never dropped the expired point")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The sweep schedules a checkpoint: eventually a checkpoint file
	// exists and the WAL has been truncated below its pre-sweep size.
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint shrank the WAL (size %d, before %d)", db.dur.wal.TotalSize(), walSizeBefore)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "*", "checkpoint-*.snap"))
		if len(snaps) > 0 && db.dur.wal.TotalSize() < walSizeBefore {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A crash-reopen now must come up without the expired point.
	st.Abort()
	st2 := openDurableStore(t, Durability{Dir: dir})
	if got := st2.DB("lms").PointCount(); got != 1 {
		t.Fatalf("reopened PointCount = %d, want 1 (expired point resurrected?)", got)
	}
	st2.Abort()
}

// TestDurableConcurrentWritesAndCheckpoints races writers against
// explicit checkpoints; run under -race this exercises the write gate and
// the immutability invariants buildSnapshot relies on. Every acknowledged
// batch must survive the final crash-reopen.
func TestDurableConcurrentWritesAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	const writers, batchesPer, perBatch = 4, 30, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			meas := fmt.Sprintf("m%d", w)
			for i := 0; i < batchesPer; i++ {
				var b []lineproto.Point
				for j := 0; j < perBatch; j++ {
					b = append(b, lineproto.NewPoint(
						meas,
						map[string]string{"hostname": "h"},
						map[string]lineproto.Value{"v": lineproto.Float(float64(i*perBatch + j))},
						time.Unix(int64(i*perBatch+j), 0),
					))
				}
				if err := db.WriteBatchContext(bg, b); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	want := writers * batchesPer * perBatch
	if got := db.PointCount(); got != want {
		t.Fatalf("PointCount = %d, want %d", got, want)
	}
	st.Abort()
	st2 := openDurableStore(t, Durability{Dir: dir})
	if got := st2.DB("lms").PointCount(); got != want {
		t.Fatalf("recovered PointCount = %d, want %d", got, want)
	}
	st2.Abort()
}

// TestStoreRecoversAllDatabases: OpenStore must bring back every
// database in the directory (the router's per-user duplicates included),
// even ones whose names need path escaping.
func TestStoreRecoversAllDatabases(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir})
	for _, name := range []string{"lms", "user_alice", "we/ird db"} {
		db, err := st.OpenDatabase(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
			"cpu",
			nil,
			map[string]lineproto.Value{"v": lineproto.Float(1)},
			time.Unix(1, 0),
		)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurableStore(t, Durability{Dir: dir})
	got := st2.Databases()
	want := []string{"lms", "user_alice", "we/ird db"}
	if len(got) != len(want) {
		t.Fatalf("recovered databases %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered databases %v, want %v", got, want)
		}
		if n := st2.DB(want[i]).PointCount(); n != 1 {
			t.Fatalf("database %q recovered %d points, want 1", want[i], n)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCorruptCheckpointRefused: the checkpoint covers 100 points
// whose WAL segments are gone, the WAL tail holds 10 more. A byte flipped in
// the checkpoint must fail the open naming the file — recovering the tail
// alone would serve 10 of 110 points as if nothing were missing.
func TestDurableCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	write := func(from, to int) {
		for i := from; i < to; i++ {
			if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": "h1"},
				map[string]lineproto.Value{"v": lineproto.Float(float64(i))},
				time.Unix(int64(i), 0),
			)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 100)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(100, 110)
	st.Abort()

	snaps, err := filepath.Glob(filepath.Join(dir, "lms", "checkpoint-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("checkpoints on disk: %v (err %v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(StoreOptions{Durability: Durability{Dir: dir}})
	if err == nil {
		n := st2.DB("lms").PointCount()
		st2.Abort()
		t.Fatalf("store opened over a corrupt checkpoint and serves %d of 110 points", n)
	}
	if !strings.Contains(err.Error(), snaps[0]) {
		t.Fatalf("open error does not name the checkpoint: %v", err)
	}
}

func TestDurableWriteAfterCloseErrors(t *testing.T) {
	st := openDurableStore(t, Durability{Dir: t.TempDir()})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	err = db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"cpu",
		nil,
		map[string]lineproto.Value{"v": lineproto.Float(1)},
		time.Time{},
	)})
	if err != ErrDBClosed {
		t.Fatalf("write after close = %v, want ErrDBClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// TestDropDatabaseRemovesDir: dropping a durable database must delete its
// on-disk directory, and re-creating it starts empty.
func TestDropDatabaseRemovesDir(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"cpu",
		nil,
		map[string]lineproto.Value{"v": lineproto.Float(1)},
		time.Unix(1, 0),
	)}); err != nil {
		t.Fatal(err)
	}
	dbDir := db.dur.dir
	st.DropDatabase("lms")
	if _, err := os.Stat(dbDir); !os.IsNotExist(err) {
		t.Fatal("dropped database directory still exists")
	}
	db2, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.PointCount(); got != 0 {
		t.Fatalf("re-created database has %d points, want 0", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreLocksDataDir: two processes on one data directory would
// interleave WAL frames and delete each other's segments; the second open
// must be refused until the first closes.
func TestOpenStoreLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir})
	if _, err := OpenStore(StoreOptions{Durability: Durability{Dir: dir}}); err == nil {
		t.Fatal("second OpenStore on a locked data directory succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurableStore(t, Durability{Dir: dir})
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointIdempotentSegments: repeated checkpoints with no traffic
// in between (the disk-full retry pattern) must reuse the empty tail
// segment instead of growing a trail of files.
func TestCheckpointIdempotentSegments(t *testing.T) {
	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBatchContext(bg, corpusBatches()[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d WAL segments after repeated checkpoints, want 1: %v", len(segs), segs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*", "checkpoint-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("%d checkpoint files, want 1: %v", len(snaps), snaps)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInvalidDatabaseNamesRefused: names whose directory form
// would escape the data dir ("..", ".") or collide with the store's LOCK
// file must not open durably — a handler-auto-created "db=.." scattering
// WAL files into (or RemoveAll-ing) the parent directory would be a
// disaster.
func TestDurableInvalidDatabaseNamesRefused(t *testing.T) {
	st := openDurableStore(t, Durability{Dir: t.TempDir()})
	defer st.Close()
	for _, name := range []string{".", "..", "LOCK"} {
		if _, err := st.OpenDatabase(name); err == nil {
			t.Errorf("OpenDatabase(%q) succeeded, want error", name)
		}
	}
	// CreateDatabase is for stores where opening cannot fail: it must not
	// answer a refused open with a database that persists nothing.
	defer func() {
		if recover() == nil {
			t.Fatal("CreateDatabase(..) on a durable store returned a database")
		}
	}()
	st.CreateDatabase("..")
}
