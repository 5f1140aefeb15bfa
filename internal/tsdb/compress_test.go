package tsdb

// Tests of the compressed run state (DESIGN.md §13): chunk codec round
// trips over adversarial values, byte-identical query answers across
// compression, the rewrite-on-compressed upsert, the checkpoint's chunk
// frames across a restart and the refusal of the retired formats, and the
// race posture of the background compactor. The randomized oracle
// (column_test.go) additionally interleaves sealed-run compression with
// its workload.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/tsdb/durable"
)

func TestTimestampCodecRoundTrip(t *testing.T) {
	t.Parallel()
	cases := [][]int64{
		{0},
		{-5e9},
		{1439856000000000000},
		{0, 0, 0, 0},
		{minInt64, 0, maxInt64},
		{minInt64, minInt64 + 1, maxInt64 - 1, maxInt64},
		{-3e9, -2e9, -1e9, 0, 1e9},
		{100, 200, 350, 350, 400},
	}
	steady := make([]int64, 1000)
	for i := range steady {
		steady[i] = int64(i) * 1e9
	}
	cases = append(cases, steady)
	rnd := rand.New(rand.NewSource(1))
	jitter := make([]int64, 500)
	cur := int64(-7e12)
	for i := range jitter {
		cur += rnd.Int63n(3e9)
		jitter[i] = cur
	}
	cases = append(cases, jitter)

	for ci, ts := range cases {
		enc := encodeTimestamps(ts)
		got := make([]int64, len(ts))
		if _, err := decodeTimestamps(enc, got, math.MaxInt64); err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if !reflect.DeepEqual(got, ts) {
			t.Fatalf("case %d: round trip changed timestamps", ci)
		}
		// A window ending at row k's timestamp decodes through the first row
		// past it, and no further.
		k := len(ts) / 2
		want := sort.Search(len(ts), func(i int) bool { return ts[i] > ts[k] })
		prefix := make([]int64, len(ts))
		if n, err := decodeTimestamps(enc, prefix, ts[k]); err != nil || n != min(want+1, len(ts)) || !reflect.DeepEqual(prefix[:n], ts[:n]) {
			t.Fatalf("case %d: decode up to row %d: %d rows (err %v), want %d", ci, k, n, err, min(want+1, len(ts)))
		}
		// Every truncation must error, never panic or fabricate rows.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeTimestamps(enc[:cut], make([]int64, len(ts)), math.MaxInt64); err == nil && len(ts) > 1 {
				t.Fatalf("case %d: truncated chunk (%d/%d bytes) decoded silently", ci, cut, len(enc))
			}
		}
	}
}

func TestFloatCodecRoundTrip(t *testing.T) {
	t.Parallel()
	nanPayload := math.Float64frombits(0x7ff80000dead0001)
	cases := [][]float64{
		{0},
		{math.NaN(), nanPayload, math.Inf(1), math.Inf(-1)},
		{0, math.Copysign(0, -1), 0},
		{1.5, 1.5, 1.5, 1.5},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		{15.5, 14.0625, 3.25, 8.625, 13.1},
	}
	rnd := rand.New(rand.NewSource(2))
	walk := make([]float64, 500)
	v := 100.0
	for i := range walk {
		v += rnd.NormFloat64()
		walk[i] = v
	}
	cases = append(cases, walk)

	for ci, vals := range cases {
		enc := encodeFloats(vals)
		got := make([]float64, len(vals))
		if err := decodeFloats(enc, got); err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("case %d row %d: %x != %x (codec is not bit-exact)",
					ci, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

func TestIntCodecRoundTrip(t *testing.T) {
	t.Parallel()
	cases := [][]int64{
		{0},
		{minInt64, maxInt64, minInt64, 0},
		{1, 1, 1, 1},
		{-1, 1, -2, 2},
		{1 << 40, 1<<40 + 1, 1<<40 + 2},
	}
	for ci, vals := range cases {
		got := make([]int64, len(vals))
		if err := decodeInts(encodeInts(vals), got); err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("case %d: round trip changed ints", ci)
		}
	}
}

func TestStrIDCodecRoundTrip(t *testing.T) {
	t.Parallel()
	cases := [][]uint32{
		{0, 0, 0},
		{1},
		{0, 1, 2, 3, 2, 1, 0},
		{1<<31 - 1, 0, 12345},
	}
	for ci, ids := range cases {
		enc, width := encodeStrIDs(ids)
		maxID := uint32(0)
		for _, id := range ids {
			if id >= maxID {
				maxID = id + 1
			}
		}
		got := make([]uint32, len(ids))
		if err := decodeStrIDs(enc, width, maxID, got); err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("case %d: round trip changed ids", ci)
		}
	}
	// An id at or past the intern table must be rejected, not served.
	enc, width := encodeStrIDs([]uint32{5})
	if err := decodeStrIDs(enc, width, 5, make([]uint32, 1)); err == nil {
		t.Fatal("id == maxID decoded silently")
	}
}

// TestCompressedSelectByteIdentical feeds two in-memory stores the same
// batch sequence; one also runs the Compress pass after every batch, which
// finds nothing to merge — the write merged at its cut. Every /query
// response must match byte for byte at every step.
func TestCompressedSelectByteIdentical(t *testing.T) {
	t.Parallel()
	plain := NewStore()
	plain.ShardsPerDB = 4
	comp := NewStore()
	comp.ShardsPerDB = 4
	pdb := plain.CreateDatabase("lms")
	cdb := comp.CreateDatabase("lms")
	pdb.SetQueryCacheTTL(0)
	cdb.SetQueryCacheTTL(0)
	for i, b := range corpusBatches() {
		if err := pdb.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
		if err := cdb.WriteBatchContext(bg, b); err != nil {
			t.Fatal(err)
		}
		if n := cdb.Compress(); n != 0 {
			t.Fatalf("batch %d: Compress merged %d chunks the write left unmerged", i, n)
		}
		if got, want := queryFingerprint(t, comp, "lms"), queryFingerprint(t, plain, "lms"); got != want {
			t.Fatalf("batch %d: compressed store answers differ from raw store", i)
		}
	}
	if cdb.compressionStats().chunks == 0 {
		t.Fatal("corpus produced no compressed chunks; the comparison tested nothing")
	}
}

// TestCompressedRewriteUpsert: a chunk is never written to. The exact
// rewrite — the dashboard upsert pattern — lands on the head, whatever the
// cut left behind it: values update last-write-wins, the row count holds,
// and the chunk is the same chunk afterwards. A block that exactly rewrites
// the chunk's own timestamps, or overlaps them partially, is no rewrite of
// the head: it cuts the head and starts a run beside the chunks, exactly as
// it would against any other run, and the first cut merges the chunk with
// the head it cut into a new chunk, leaving the old one as it was.
func TestCompressedRewriteUpsert(t *testing.T) {
	t.Parallel()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	const n = 40 // past sealRows, so the next in-order block seals the run
	write := func(pts []lineproto.Point) {
		t.Helper()
		if err := db.WriteBatchContext(bg, pts); err != nil {
			t.Fatal(err)
		}
	}
	rows := rewriteBatchPts("h1", 2*n, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{
			"a": lineproto.Float(float64(i)),
			"b": lineproto.Int(int64(i) * 10),
		}
	})
	write(rows[:n])
	write(rows[n:])
	if got, want := runLayout(db), fmt.Sprintf("m hostname=h1: %dc %dh", n, n); got != want {
		t.Fatalf("fixture layout: %s, want %s", got, want)
	}
	m := db.shardFor("m").measurements["m"]
	sr := m.series["hostname=h1"]
	chunk := sr.runs[0]
	held := decodeRun(m, chunk) // rows copied out of the chunk

	// Exact rewrite of the head's field a: values update, the row count is
	// unchanged, field b keeps its stored values, the chunk is untouched.
	write(rewriteBatchPts("h1", 2*n, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"a": lineproto.Float(float64(i) + 100)}
	})[n:])
	if got := db.PointCount(); got != 2*n {
		t.Fatalf("exact rewrite changed row count: %d != %d", got, 2*n)
	}
	if sr.runs[0] != chunk || len(sr.runs) != 1 {
		t.Fatalf("exact rewrite of the head touched the chunk: %s", runLayout(db))
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res[0].Rows {
		want := float64(i)
		if i >= n {
			want += 100
		}
		if got := row.Values[0].FloatVal(); got != want {
			t.Fatalf("row %d field a = %v, want %v", i, got, want)
		}
		if got := row.Values[1].IntVal(); got != int64(i)*10 {
			t.Fatalf("row %d field b = %v, want %v", i, got, int64(i)*10)
		}
	}

	// The chunk's exact timestamps, and a partial overlap, append: each
	// lands in a run of its own and the duplicates resolve by merge order.
	// The first cuts the head, which merges with the chunk into a new one.
	write(rows[:n])
	write(rewriteBatchPts("h1", 3, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"a": lineproto.Float(-1)}
	})[2:])
	if got := db.PointCount(); got != 3*n+1 {
		t.Fatalf("a block over the chunk upserted instead of appending: %d rows, want %d", got, 3*n+1)
	}
	if got, want := runLayout(db), fmt.Sprintf("m hostname=h1: %dc %dc 1h", 2*n, n); got != want {
		t.Fatalf("layout after the blocks over the chunk: %s, want %s", got, want)
	}
	if !reflect.DeepEqual(decodeRun(m, chunk), held) {
		t.Fatal("the merge that replaced the chunk wrote to it")
	}
}

// TestCompressionStatsAndMetrics covers the scrape-time sweep: a head's
// resident bytes are its streams', the cut moves exactly those bytes to the
// chunk it makes, the chunk count appears, and the ratio gauge reports the
// achieved factor.
func TestCompressionStatsAndMetrics(t *testing.T) {
	t.Parallel()
	st := NewStore()
	db := st.CreateDatabase("lms")
	pts := make([]lineproto.Point, 2001)
	for i := range pts {
		pts[i] = lineproto.NewPoint(
			"cpu",
			map[string]string{"hostname": "h0"},
			map[string]lineproto.Value{
				"user": lineproto.Float(float64(i % 97)),
				"ctx":  lineproto.Int(int64(i)),
			},
			time.Unix(int64(i), 0).UTC(),
		)
	}
	// 2000 rows in one head, cut by the next in-order block.
	if err := db.WriteBatchContext(bg, pts[:2000]); err != nil {
		t.Fatal(err)
	}
	before := db.compressionStats()
	if before.headBytes == 0 || before.compressedBytes != 0 || before.chunks != 0 {
		t.Fatalf("pre-cut stats: %+v", before)
	}
	if err := db.WriteBatchContext(bg, pts[2000:]); err != nil {
		t.Fatal(err)
	}
	after := db.compressionStats()
	if after.compressedBytes != before.headBytes || after.chunks != 3 || after.headBytes == 0 {
		t.Fatalf("post-cut stats: %+v, want the head's %d bytes in 3 chunks", after, before.headBytes)
	}
	if after.rawOfCompressed <= after.compressedBytes {
		t.Fatalf("compression did not shrink the run: raw %d vs comp %d",
			after.rawOfCompressed, after.compressedBytes)
	}
}

// TestCompressConcurrentWithQueries exercises the merges the writers'
// cuts make under the shard lock against live readers; run with -race.
// Timestamps are unique per series, so the final row count is exact, and
// once the writers stop nothing is left to merge.
func TestCompressConcurrentWithQueries(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	db.SetQueryCacheTTL(0)

	const writers, batches, per = 4, 30, 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for g := 0; g < writers; g++ {
			g := g
			for bi := 0; bi < batches; bi++ {
				pts := make([]lineproto.Point, per)
				for i := range pts {
					seq := int64(bi*per + i)
					if bi%4 == 3 {
						seq = -seq // out-of-order: force new runs and merges
					}
					pts[i] = lineproto.NewPoint(
						"m",
						map[string]string{"hostname": string(rune('a' + g))},
						map[string]lineproto.Value{"value": lineproto.Float(float64(seq))},
						time.Unix(seq, int64(g)).UTC(),
					)
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for {
		if _, err := db.SelectContext(bg, Query{Measurement: "m", Cols: star(AggCount, 0)}); err != nil && err != ErrNoMeasurement {
			t.Fatal(err)
		}
		select {
		case <-done:
			if got, want := db.PointCount(), writers*batches*per; got != want {
				t.Fatalf("final resident rows %d, want %d", got, want)
			}
			if pendingSpans(db) > 0 {
				t.Fatalf("chunks unmerged after the writers stopped:\n%s", runLayout(db))
			}
			if db.compressionStats().compressedBytes == 0 {
				t.Fatal("the writes cut no chunk")
			}
			return
		default:
		}
	}
}

// runLayout renders every series' runs, in series-key order, as row count
// plus c (a chunk) or h (the head): "cpu hostname=h1: 32c 32c 4h".
func runLayout(db *DB) string {
	var lines []string
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, m := range sh.measurements {
			for key, sr := range m.series {
				line := m.name + " " + key + ":"
				for _, c := range sr.runs {
					line += fmt.Sprintf(" %dc", c.N)
				}
				if sr.head != nil {
					line += fmt.Sprintf(" %dh", sr.head.n)
				}
				lines = append(lines, line)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// pendingSpans counts the merges mergeSpans plans over every series: 0
// wherever each write merged at its cut.
func pendingSpans(db *DB) int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				n += len(sr.mergeSpans(nil))
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// oneRowBatches writes rows [from, to) as one-row in-order batches to each
// of two series.
func oneRowBatches(t *testing.T, db *DB, from, to int) {
	t.Helper()
	rowBatches(t, db, from, to, 1)
}

// rowBatches writes rows [from, to) as in-order batches of per rows to each
// of two series.
func rowBatches(t *testing.T, db *DB, from, to, per int) {
	t.Helper()
	for lo := from; lo < to; lo += per {
		for _, host := range []string{"h1", "h2"} {
			var pts []lineproto.Point
			for i := lo; i < min(lo+per, to); i++ {
				pts = append(pts, lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": host},
					map[string]lineproto.Value{"user": lineproto.Float(float64(i%7) + 0.5), "ctx": lineproto.Int(int64(i) * 3)},
					time.Unix(int64(i)*10, 0).UTC(),
				))
			}
			if err := db.WriteBatchContext(bg, pts); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSealByRule pins the seal rule and the merged chunk sizes (DESIGN.md
// §13): k one-row in-order batches cut ⌊k/sealRows⌋ chunks of sealRows rows
// and leave a head; each cut merges the chunks behind it into power-of-two
// chunks of up to maxChunkRows rows, oldest largest; WAL replay after a
// crash rebuilds that layout run for run; and a store written in 100-row
// batches, cut at other rows, answers every query byte for byte the same.
func TestSealByRule(t *testing.T) {
	t.Parallel()
	const k = 1500 // 46 cut chunks = 32 + 8 + 4 + 2, and 28 rows in the head
	want := "cpu hostname=h1: 1024c 256c 128c 64c 28h\ncpu hostname=h2: 1024c 256c 128c 64c 28h"

	dir := t.TempDir()
	st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	oneRowBatches(t, db, 0, k)
	if got := runLayout(db); got != want {
		t.Fatalf("layout after %d one-row batches:\n%s\nwant\n%s", k, got, want)
	}
	st.Abort()

	st2 := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	defer st2.Close()
	if got := runLayout(st2.DB("lms")); got != want {
		t.Fatalf("layout after WAL replay:\n%s\nwant\n%s", got, want)
	}

	blockSt := NewStore()
	blockSt.ShardsPerDB = 4
	blocks := blockSt.CreateDatabase("lms")
	rowBatches(t, blocks, 0, k, 100)
	if got := runLayout(blocks); got == want {
		t.Fatalf("100-row batches cut where one-row batches do:\n%s", got)
	}
	if queryFingerprint(t, blockSt, "lms") != queryFingerprint(t, st2, "lms") {
		t.Fatal("a store written in 100-row batches answers differently")
	}
}

// TestCheckpointRestartContinuity: Close checkpoints every run as a chunk,
// the head too, run for run as the store held them; a reopened store
// adopts those chunks and makes each series' newest the head again, so it
// holds the layout it closed with, and the next in-order blocks land
// where a store that never restarted puts them — the same layout after
// every write, byte-identical /query bodies. With k = 1536 the head is full
// when the store closes, so the first block after the reopen cuts it, and
// that cut must merge it with the 32-row chunk before it.
func TestCheckpointRestartContinuity(t *testing.T) {
	for _, k := range []int{1500, 1536} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			ref := NewStore()
			ref.ShardsPerDB = 4
			oneRowBatches(t, ref.CreateDatabase("lms"), 0, k)

			dir := t.TempDir()
			st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
			db, err := st.OpenDatabase("lms")
			if err != nil {
				t.Fatal(err)
			}
			oneRowBatches(t, db, 0, k)
			closed := runLayout(db)
			held := strings.TrimSuffix(strings.ReplaceAll(closed+"\n", "h\n", "c\n"), "\n") // the head is each line's last run
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			snap, _, err := durable.LoadLatestSnapshot(nil, filepath.Join(dir, "lms"))
			if err != nil || snap == nil {
				t.Fatalf("checkpoint unreadable: %v", err)
			}
			var onDisk []string
			for _, sr := range snap.Measurements[0].Series {
				line := "cpu " + seriesKey(sr.Tags) + ":"
				for _, c := range sr.Runs {
					line += fmt.Sprintf(" %dc", c.N)
				}
				onDisk = append(onDisk, line)
			}
			if got := strings.Join(onDisk, "\n"); got != held {
				t.Fatalf("runs on disk:\n%s\nwant every resident run as a chunk:\n%s", got, held)
			}

			st2 := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
			defer st2.Close()
			db2 := st2.DB("lms")
			if got := runLayout(db2); got != closed {
				t.Fatalf("recovered layout:\n%s\nwant\n%s", got, closed)
			}
			oneRowBatches(t, db2, k, k+1)
			oneRowBatches(t, ref.DB("lms"), k, k+1)
			if got, want := runLayout(db2), runLayout(ref.DB("lms")); got != want {
				t.Fatalf("layout after the reopen's first block:\n%s\nnever restarted:\n%s", got, want)
			}
			oneRowBatches(t, db2, k+1, k+40)
			oneRowBatches(t, ref.DB("lms"), k+1, k+40)
			if got, want := runLayout(db2), runLayout(ref.DB("lms")); got != want {
				t.Fatalf("layout after the reopen's writes:\n%s\nnever restarted:\n%s", got, want)
			}
			if queryFingerprint(t, st2, "lms") != queryFingerprint(t, ref, "lms") {
				t.Fatal("the restarted store answers differently")
			}
		})
	}
}

// TestLateBlockLeavesChunks: a late block — a backfill, or a dump loaded
// out of time order — into a long series opens a run of its own next to the
// history. The write path neither decompresses, merges nor replaces a
// chunk the history already holds, and queries see every row.
func TestLateBlockLeavesChunks(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	block := func(rows int, at func(i int) int64) []lineproto.Point {
		pts := make([]lineproto.Point, rows)
		for i := range pts {
			pts[i] = lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": "h1"},
				map[string]lineproto.Value{"user": lineproto.Float(float64(i % 9)), "ctx": lineproto.Int(int64(i))},
				time.Unix(at(i), 0).UTC(),
			)
		}
		return pts
	}
	const blocks = 101 // 100 cut chunks and a full head
	for b := 0; b < blocks; b++ {
		if err := db.WriteBatchContext(bg, block(sealRows, func(i int) int64 { return int64(b*sealRows+i) * 10 })); err != nil {
			t.Fatal(err)
		}
	}
	const history = " 1024c 1024c 1024c 128c"
	if got, want := runLayout(db), "cpu hostname=h1:"+history+" 32h"; got != want {
		t.Fatalf("layout of the history:\n%s\nwant\n%s", got, want)
	}
	sr := db.shardFor("cpu").measurements["cpu"].series["hostname=h1"]
	chunks := slices.Clone(sr.runs[:4])
	untouched := func(when string) {
		t.Helper()
		for i, c := range chunks {
			if sr.runs[i] != c {
				t.Fatalf("%s: chunk %d was replaced or decompressed:\n%s", when, i, runLayout(db))
			}
		}
	}

	// 16 rows between the history's first ones.
	if err := db.WriteBatchContext(bg, block(16, func(i int) int64 { return int64(i)*10 + 5 })); err != nil {
		t.Fatal(err)
	}
	untouched("after the late block")
	if got, want := runLayout(db), "cpu hostname=h1:"+history+" 32c 16h"; got != want {
		t.Fatalf("layout after the late block:\n%s\nwant\n%s", got, want)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu", Cols: []AggCol{{Field: "ctx", Agg: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].IntVal(); got != int64(blocks*sealRows+16) {
		t.Fatalf("count(ctx) = %d, want %d", got, blocks*sealRows+16)
	}
}

// TestRetentionOverChunks: the retention sweep over a series of chunks and
// a head. A cutoff inside one chunk drops the chunks wholly before it
// without decoding them — they are corrupt here, and the decode counter
// stays 0 — keeps the ones after it as they are, and cuts the one it falls
// in into a new chunk, which the sweep merges again. A late block that
// expires before the runs written after it leaves a chunk newest: the
// sweep makes it the head, so an exact rewrite of its timestamps still
// upserts. Throughout, a twin store whose chunks were never broken answers
// byte for byte the same.
func TestRetentionOverChunks(t *testing.T) {
	t.Parallel()
	st, twinSt := NewStore(), NewStore()
	db, twin := st.CreateDatabase("lms"), twinSt.CreateDatabase("lms")
	hosts := []string{"h1", "h2"}
	series := func(host string) *series { return db.shardFor("cpu").measurements["cpu"].series["hostname="+host] }
	both := func(f func(db *DB)) { f(db); f(twin) }
	at := func(row int) time.Time { return time.Unix(int64(row)*10, 0) } // oneRowBatches' row times
	// block writes rows [from, to) of each host as one batch.
	block := func(db *DB, from, to int, at func(row int) time.Time) {
		for _, host := range hosts {
			var pts []lineproto.Point
			for i := from; i < to; i++ {
				pts = append(pts, lineproto.NewPoint(
					"cpu",
					map[string]string{"hostname": host},
					map[string]lineproto.Value{"user": lineproto.Float(-1), "ctx": lineproto.Int(int64(-i))},
					at(i),
				))
			}
			if err := db.WriteBatchContext(bg, pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when, runs string) {
		t.Helper()
		if got, want := runLayout(db), "cpu hostname=h1:"+runs+"\ncpu hostname=h2:"+runs; got != want {
			t.Fatalf("layout %s:\n%s\nwant\n%s", when, got, want)
		}
		if got := st.Metrics().ChunkDecodeErrors.Value(); got != 0 {
			t.Fatalf("%s: lms_db_chunk_decode_errors_total = %d", when, got)
		}
		if queryFingerprint(t, st, "lms") != queryFingerprint(t, twinSt, "lms") {
			t.Fatalf("%s: the twin store answers differently", when)
		}
	}

	both(func(db *DB) { oneRowBatches(t, db, 0, 500) })
	var after [][]*compRun
	for _, host := range hosts {
		sr := series(host)
		after = append(after, slices.Clone(sr.runs[2:4]))
		c := sr.runs[0]
		data := c.Cols[compColByName(c, "ctx")].Data
		data[len(data)-1] ^= 0x80
	}
	both(func(db *DB) { db.DropBefore(at(300)) }) // inside the chunk of rows 256-383
	check("after the sweep", " 148c 32c 20h")
	for i, host := range hosts {
		if series(host).runs[1] != after[i][1] {
			t.Fatalf("the sweep replaced a chunk past the cutoff:\n%s", runLayout(db))
		}
	}

	// The head fills up, and a late block behind it is compressed behind
	// nothing: it is the head until it expires.
	both(func(db *DB) { oneRowBatches(t, db, 500, 512) })
	both(func(db *DB) { block(db, 300, 310, func(row int) time.Time { return at(row).Add(5 * time.Second) }) })
	check("after the late block", " 148c 64c 10h")
	both(func(db *DB) { db.DropBefore(at(310)) })
	check("after the late block expired", " 138c 64h")

	points := db.PointCount()
	block(db, 448, 512, at) // the decoded head's timestamps exactly
	if got := db.PointCount(); got != points {
		t.Fatalf("an exact rewrite of the decoded head changed the row count: %d, want %d", got, points)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "cpu", Cols: []AggCol{{Field: "ctx", Agg: AggMin}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0].Values[0].IntVal(); got != -511 {
		t.Fatalf("min(ctx) = %d after the rewrite, want -511", got)
	}
	if got, want := runLayout(db), "cpu hostname=h1: 138c 64h\ncpu hostname=h2: 138c 64h"; got != want {
		t.Fatalf("layout after the rewrite:\n%s\nwant\n%s", got, want)
	}
}

// TestCorruptChunkCounted: a resident chunk that no longer decodes is
// served as an empty run — the query still answers — and every failure
// moves lms_db_chunk_decode_errors_total.
func TestCorruptChunkCounted(t *testing.T) {
	t.Parallel()
	st, _ := corruptChunkStore(t)
	for i := 1; i <= 2; i++ {
		querySumCtx(t, st)
		if got := st.Metrics().ChunkDecodeErrors.Value(); got != uint64(i) {
			t.Fatalf("after query %d: lms_db_chunk_decode_errors_total = %d, want %d", i, got, i)
		}
	}
}

// corruptChunkStore is a store whose database lms holds oneRowBatches'
// two series with the ctx column of h1's oldest chunk broken:
// its last varint no longer terminates.
func corruptChunkStore(t *testing.T) (*Store, *DB) {
	t.Helper()
	st := NewStore()
	db := st.CreateDatabase("lms")
	db.SetQueryCacheTTL(0)
	oneRowBatches(t, db, 0, 3*sealRows)
	sh := db.shardFor("cpu")
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.measurements["cpu"].series["hostname=h1"].runs[0]
	data := c.Cols[compColByName(c, "ctx")].Data
	data[len(data)-1] ^= 0x80
	return st, db
}

// querySumCtx asks st's lms for sum(ctx) over cpu through the HTTP handler
// and fails unless it answers 200.
func querySumCtx(t *testing.T, st *Store) {
	t.Helper()
	rec := httptest.NewRecorder()
	NewHandler(st).ServeHTTP(rec, httptest.NewRequest("GET", "/query?db=lms&q="+url.QueryEscape("SELECT sum(ctx) FROM cpu"), nil))
	if rec.Code != 200 {
		t.Fatalf("query over a corrupt chunk: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDecodeErrorLoggedPerStore: the corrupt-chunk log line is rate-limited
// per store, not per process. A process hosting several stores (the
// in-process cluster harness, lms-sim) logs each store's first failure and
// no more. Not parallel: it captures the process-wide logger.
func TestDecodeErrorLoggedPerStore(t *testing.T) {
	var log strings.Builder
	prev := obs.Log().SetOutput(&log)
	defer obs.Log().SetOutput(prev)
	for range 2 {
		st, _ := corruptChunkStore(t)
		querySumCtx(t, st)
		querySumCtx(t, st)
	}
	if got := strings.Count(log.String(), "compressed chunk decode failed"); got != 2 {
		t.Fatalf("%d corrupt-chunk log lines from two stores, want 2:\n%s", got, log.String())
	}
}

// TestCorruptHeadChunkAtRecovery: a checkpoint that passes its CRC but
// whose head chunk fails the codec still opens. Recovery counts the failed
// decode and leaves the chunk, the next block opens a run beside it instead
// of appending into it, and queries answer.
func TestCorruptHeadChunkAtRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "lms"), 0o755); err != nil {
		t.Fatal(err)
	}
	ts := []int64{10e9, 20e9, 30e9}
	good := compressColumns(ts, []col{{Name: "ctx", n: 3, Values: durable.Values{Kind: lineproto.KindInt, Ints: []int64{1, 2, 3}}}})
	head := &compRun{N: 3, MinTS: 40e9, MaxTS: 60e9, Ts: encodeTimestamps([]int64{40e9, 50e9, 60e9}),
		Cols: []compCol{{Name: "ctx", Kind: lineproto.KindInt, Data: []byte{0x80, 0x80, 0x80}}}} // no varint terminates
	snap := &durable.Snapshot{Measurements: []durable.Measurement{{
		Name:   "cpu",
		Fields: []durable.FieldSchema{{Name: "ctx", Kind: lineproto.KindInt}},
		Series: []durable.Series{{Tags: map[string]string{"hostname": "h1"}, Runs: []*compRun{good, head}}},
	}}}
	if err := durable.WriteSnapshot(nil, filepath.Join(dir, "lms"), 1, snap); err != nil {
		t.Fatal(err)
	}

	st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	defer st.Close()
	db := st.DB("lms")
	if got := st.Metrics().ChunkDecodeErrors.Value(); got != 1 {
		t.Fatalf("lms_db_chunk_decode_errors_total = %d after the open, want 1", got)
	}
	if err := db.WriteBatchContext(bg, []lineproto.Point{lineproto.NewPoint(
		"cpu",
		map[string]string{"hostname": "h1"},
		map[string]lineproto.Value{"ctx": lineproto.Int(7)},
		time.Unix(70, 0),
	)}); err != nil {
		t.Fatal(err)
	}
	if got, want := runLayout(db), "cpu hostname=h1: 3c 3c 1h"; got != want {
		t.Fatalf("layout after the next block:\n%s\nwant\n%s", got, want)
	}
	querySumCtx(t, st)
}

// TestCheckpointCompressedRoundTrip: a checkpoint stores the chunks and the
// heads' bytes verbatim, and recovery adopts the chunks still compressed —
// no decode on either path but each head's, which recovery decodes back
// into a head — with byte-identical query answers and resident bytes.
func TestCheckpointCompressedRoundTrip(t *testing.T) {
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
	cs := db.compressionStats()
	if cs.chunks == 0 || cs.headBytes == 0 {
		t.Fatalf("no mix of chunks and heads before the checkpoint: %+v", cs)
	}
	before := queryFingerprint(t, st, "lms")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDurableStore(t, Durability{Dir: dir})
	if after := queryFingerprint(t, st2, "lms"); after != before {
		t.Fatal("recovered answers differ from pre-restart answers")
	}
	if got := st2.DB("lms").compressionStats(); got != cs {
		t.Fatalf("recovered run states %+v, want the chunks adopted and the heads raw as before the restart: %+v", got, cs)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointV1Refused: a checkpoint in a retired on-disk format — the
// raw-runs-only LMSCKP1, or the LMSCKP2 that kept a raw-run codec beside
// the chunks — must fail the open with an error naming the format. The WAL
// segments it covers are already deleted, so treating it as one more
// corrupt file to skip would recover a partial or empty database without a
// word.
func TestCheckpointV1Refused(t *testing.T) {
	for _, magic := range []string{"LMSCKP1", "LMSCKP2"} {
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			st := openDurableStore(t, Durability{Dir: dir})
			db, err := st.OpenDatabase("lms")
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range corpusBatches() {
				if err := db.WriteBatchContext(bg, b); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			snaps, err := filepath.Glob(filepath.Join(dir, "lms", "checkpoint-*.snap"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("checkpoints on disk: %v (err %v)", snaps, err)
			}
			data, err := os.ReadFile(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			if string(data[:8]) != "LMSCKP3\n" {
				t.Fatalf("checkpoint magic %q", data[:8])
			}
			copy(data, magic)
			if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := OpenStore(StoreOptions{Durability: Durability{Dir: dir}})
			if err == nil {
				n := st2.DB("lms").PointCount()
				_ = st2.Close()
				t.Fatalf("store opened over an %s checkpoint and serves %d points", magic, n)
			}
			if !strings.Contains(err.Error(), magic) {
				t.Fatalf("open error does not name the format: %v", err)
			}
		})
	}
}

// FuzzCompressedChunkDecode: arbitrary bytes through every chunk decoder.
// Decoding must never panic and never over-allocate beyond the caller's
// row count; a chunk that decodes must survive the canonical
// encode/decode round trip value-for-value, or compaction and rewrites
// would silently corrupt accepted data.
func FuzzCompressedChunkDecode(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint8(0), encodeTimestamps([]int64{100, 200, 350}))
	f.Add(uint8(1), uint16(4), uint8(0), encodeFloats([]float64{1.5, math.NaN(), 0, -2.25}))
	f.Add(uint8(2), uint16(3), uint8(0), encodeInts([]int64{-5, 5, 1 << 40}))
	ids, width := encodeStrIDs([]uint32{0, 1, 2, 1})
	f.Add(uint8(3), uint16(4), width, ids)
	f.Add(uint8(0), uint16(1000), uint8(0), []byte{0xff, 0x00})    // starving row count
	f.Add(uint8(1), uint16(2), uint8(0), []byte{})                 // empty chunk
	f.Add(uint8(3), uint16(8), uint8(33), []byte{0xaa})            // implausible width
	f.Add(uint8(2), uint16(2), uint8(0), []byte{0x80, 0x80, 0x80}) // unterminated varint

	f.Fuzz(func(t *testing.T, kind uint8, n uint16, width uint8, data []byte) {
		rows := int(n%2048) + 1
		switch kind % 4 {
		case 0:
			dst := make([]int64, rows)
			if _, err := decodeTimestamps(data, dst, math.MaxInt64); err != nil {
				return
			}
			rt := make([]int64, rows)
			if _, err := decodeTimestamps(encodeTimestamps(dst), rt, math.MaxInt64); err != nil {
				t.Fatalf("canonical timestamp chunk does not decode: %v", err)
			}
			if !reflect.DeepEqual(rt, dst) {
				t.Fatal("timestamp round trip changed values")
			}
		case 1:
			dst := make([]float64, rows)
			if decodeFloats(data, dst) != nil {
				return
			}
			rt := make([]float64, rows)
			if err := decodeFloats(encodeFloats(dst), rt); err != nil {
				t.Fatalf("canonical float chunk does not decode: %v", err)
			}
			for i := range dst {
				if math.Float64bits(rt[i]) != math.Float64bits(dst[i]) {
					t.Fatal("float round trip changed bits")
				}
			}
		case 2:
			dst := make([]int64, rows)
			if decodeInts(data, dst) != nil {
				return
			}
			rt := make([]int64, rows)
			if err := decodeInts(encodeInts(dst), rt); err != nil {
				t.Fatalf("canonical int chunk does not decode: %v", err)
			}
			if !reflect.DeepEqual(rt, dst) {
				t.Fatal("int round trip changed values")
			}
		default:
			dst := make([]uint32, rows)
			if decodeStrIDs(data, width, 1<<31, dst) != nil {
				return
			}
			enc, w2 := encodeStrIDs(dst)
			rt := make([]uint32, rows)
			if err := decodeStrIDs(enc, w2, 1<<31, rt); err != nil {
				t.Fatalf("canonical string-id chunk does not decode: %v", err)
			}
			if !reflect.DeepEqual(rt, dst) {
				t.Fatal("string-id round trip changed values")
			}
		}
	})
}

// sealSweepFill fills pts with one host's 100-line cycle in the shape the
// collector-batch benchmark workload sends: its eight measurements and
// fields, four job tags, and values that sit on a per-series level with
// two units of noise in eighths, one line a microsecond after the other.
// pts is a cycle of the same host made by it before, whose tag and field
// slices it reuses; nil makes a new one.
func sealSweepFill(pts []lineproto.Point, host, cycle int) []lineproto.Point {
	fieldKey := func(name string) string {
		if name[0] == 'i' {
			return name[1:]
		}
		return name
	}
	mix := func(x uint64) uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	schema := []struct {
		name, sub string
		lines     int
		fields    []string // an i prefix marks an int field
	}{
		{"cpu", "", 1, []string{"user", "system", "idle", "percent"}},
		{"cpu_core", "core", 72, []string{"user", "system", "idle", "percent"}},
		{"memory", "", 1, []string{"iused_kb", "ifree_kb", "itotal_kb"}},
		{"load", "", 1, []string{"load1", "load5", "load15", "irunnable"}},
		{"network", "device", 4, []string{"irx_bytes", "itx_bytes", "irx_packets", "itx_packets"}},
		{"disk", "device", 5, []string{"iread_kb", "iwrite_kb"}},
		{"likwid_mem", "socket", 8, []string{"bandwidth_mbs", "data_volume_gb", "runtime_s"}},
		{"likwid_flops", "socket", 8, []string{"dp_mflop_s", "sp_mflop_s", "cpi", "clock_mhz", "runtime_s", "avx_share"}},
	}
	fresh := pts == nil
	ts := time.Unix(1501804800, 0).Add(time.Duration(cycle)*10*time.Second + time.Duration(host+1)*time.Millisecond)
	line := uint64(0)
	for _, m := range schema {
		for sub := 0; sub < m.lines; sub++ {
			if fresh {
				tags := map[string]string{
					"hostname": fmt.Sprintf("h%03d", host), "jobid": fmt.Sprintf("%d.master", 4711+host/16),
					"username": fmt.Sprintf("user%d", host/16%3), "queue": "batch", "project": fmt.Sprintf("p%d", host/16%2),
				}
				if m.sub != "" {
					tags[m.sub] = fmt.Sprint(sub)
				}
				fields := map[string]lineproto.Value{}
				for _, name := range m.fields {
					fields[fieldKey(name)] = lineproto.Value{}
				}
				pts = append(pts, lineproto.NewPoint(m.name, tags, fields, time.Time{}))
			}
			p := &pts[line]
			p.Time = ts
			for f, name := range m.fields {
				v := int64(mix(uint64(host)<<32^line<<8^uint64(f))%8000 + mix(uint64(cycle*64+host)<<20^line<<8^uint64(f)^0xabcdef)%16)
				val := lineproto.Float(float64(v) / 8)
				if name[0] == 'i' {
					val = lineproto.Int(v)
				}
				key := fieldKey(name)
				p.Fields[slices.IndexFunc(p.Fields, func(f lineproto.Field) bool { return f.Key == key })].Value = val
			}
			ts = ts.Add(time.Microsecond)
			line++
		}
	}
	return pts
}

// sealSweepDB writes cycles sealSweepFill cycles of len(bufs) hosts into
// a new database, one row per series per cycle, through the points of
// bufs: one slice per host, built by the first fill and refilled in place
// by every later one, so the write path is what allocates. The caller
// holds sealRows at the size under test until it is done with the
// database.
func sealSweepDB(b *testing.B, bufs [][]lineproto.Point, cycles int) *DB {
	b.Helper()
	db := newDB("lms")
	db.SetQueryCacheTTL(0)
	for c := 0; c < cycles; c++ {
		for h := range bufs {
			bufs[h] = sealSweepFill(bufs[h], h, c)
			if err := db.WriteBatchContext(bg, bufs[h]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// TestResidentHeapPerPoint measures what a stored point costs the Go heap
// (ROADMAP item 1): sealSweepFill's 64 hosts (6 400 series) at 1, 78 —
// the benchmark's series length — and 300 rows per series, as the
// heap grew across two forced GCs, against lms_db_resident_bytes' B/point.
// It pins the 78-row figure, the regime every job start puts a cluster in
// (the router tags each point with its job, so a job's series are new):
// 44.4 B/point when each series' newest rows sat raw in arrays presized
// for sealRows rows. Not parallel: the heap is the process's.
func TestResidentHeapPerPoint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("writes 2.4M points; the race detector's heap is not the product's")
	}
	const hosts = 64
	for _, rows := range []int{1, 78, 300} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := newDB("lms")
		cycles := make([][]lineproto.Point, hosts)
		for c := 0; c < rows; c++ {
			for h := range cycles {
				cycles[h] = sealSweepFill(cycles[h], h, c)
				if err := db.WriteBatchContext(bg, cycles[h]); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycles = nil
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		points := float64(hosts * rows * 100)
		cs := db.compressionStats()
		heap := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / points
		t.Logf("%3d rows per series: heap %6.1f B/point, gauge %5.2f B/point (heads %.2f + chunks %.2f)", rows, heap,
			float64(cs.headBytes+cs.compressedBytes)/points, float64(cs.headBytes)/points, float64(cs.compressedBytes)/points)
		if rows == 78 && heap > 30 {
			t.Errorf("at 78 rows per series a point costs %.1f B of heap, want <= 30", heap)
		}
		runtime.KeepAlive(db)
	}
}

// BenchmarkSealRows replays the choice of sealRows = 32 by what the seal
// size trades: 64 hosts × 78 cycles written with the seal at N rows — the
// fill, timed — then a dashboard-shaped set of 16 panel selects (the
// benchmark workload's panel: mean per minute per host of one job's 16
// hosts, over one or two minutes of the first 16 cycles). Per written
// point it reports the fill's ns and allocations, the cuts and the merges
// they make included, and the resident bytes (one replica) and chunk ratio
// it leaves; then the µs of the panel set. The merges normalise the layout
// behind the head, so B/point barely moves with N: the write's merge work
// and the rows every head holds do. No series reaches 128 rows, so N=128
// is the layout without a seal.
func BenchmarkSealRows(b *testing.B) {
	const hosts, cycles = 64, 78
	base := int64(1501804800)
	var panels []Query
	for i, m := range []string{"cpu", "cpu_core", "memory", "load", "network", "disk", "likwid_mem", "likwid_flops"} {
		f := map[string]string{"memory": "used_kb", "load": "load1", "network": "rx_bytes", "disk": "read_kb",
			"likwid_mem": "bandwidth_mbs", "likwid_flops": "dp_mflop_s"}[m]
		for j, w := range [][2]int64{{0, 60}, {40, 160}} {
			panels = append(panels, Query{
				Measurement: m, Cols: []AggCol{{Field: cmp.Or(f, "user"), Agg: AggMean}}, GroupByTags: []string{"hostname"},
				Filter: TagFilter{"jobid": fmt.Sprintf("%d.master", 4711+(i+j)%4)},
				Every:  time.Minute, Start: time.Unix(base+w[0], 0), End: time.Unix(base+w[1], 0),
			})
		}
	}
	for _, n := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			defer func(old int) { sealRows = old }(sealRows)
			sealRows = n
			bufs := make([][]lineproto.Point, hosts)
			sealSweepDB(b, bufs, 1) // builds the points
			var db *DB
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db = sealSweepDB(b, bufs, cycles)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			points := float64(b.N * hosts * cycles * 100)
			cs := db.compressionStats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/points, "ns/point")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/points, "allocs/point")
			b.ReportMetric(float64(cs.headBytes+cs.compressedBytes)/(hosts*cycles*100), "B/point")
			b.ReportMetric(float64(cs.rawOfCompressed)/float64(max(cs.compressedBytes, 1)), "ratio")
			const sets = 10
			start := time.Now()
			for i := 0; i < sets; i++ {
				for _, q := range panels {
					if _, err := db.SelectContext(bg, q); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/sets, "µs/set")
		})
	}
}

// BenchmarkC1_CompressThroughput measures the chunk encoder over the
// footprint data set of the root package's C benchmarks (1M points, 4
// series, float + int, in-order 1000-point batches): the rows of every
// chunk the load cut and merged, decoded once, then encoded again by
// encodeRun — a fresh head appended in one block and cut, as a merge and a
// retention cut encode — in points/s.
func BenchmarkC1_CompressThroughput(b *testing.B) {
	const points, perB, series = 1_000_000, 1000, 4
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	pts := make([]lineproto.Point, perB)
	for wrote := 0; wrote < points; wrote += perB {
		for k := range pts {
			n := wrote + k
			pts[k] = lineproto.NewPoint(
				"cpu",
				map[string]string{"hostname": fmt.Sprintf("h%d", n%series)},
				map[string]lineproto.Value{"value": lineproto.Float(float64(n)), "ops": lineproto.Int(int64(n % 4096))},
				time.Unix(int64(n/series), int64(n%series)),
			)
		}
		if err := db.WriteBatchContext(bg, pts); err != nil {
			b.Fatal(err)
		}
	}
	m := db.shardFor("cpu").measurements["cpu"]
	var runs []*colRun
	var a decodeArena // never reset: every run stays decoded
	rows := 0
	for _, sr := range m.series {
		for _, c := range sr.runs {
			raw, err := decodeChunk(c, len(m.strs.vals), &a)
			if err != nil {
				b.Fatal(err)
			}
			runs, rows = append(runs, raw), rows+c.N
		}
	}
	if rows < points/2 {
		b.Fatalf("the load cut %d rows into chunks, want most of %d", rows, points)
	}
	var scratch bitWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			encodeRun(r.ts, r.cols, m.strs.vals, &scratch)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "points/s")
}
