package tsdb

// Tests of the compressed run state (DESIGN.md §13): chunk codec round
// trips over adversarial values, byte-identical query answers across
// compression, the rewrite-on-compressed upsert, the durable V2 frame
// round trip plus V1 back-compat, and the race posture of the background
// compactor. The randomized oracle (column_test.go) additionally
// interleaves sealed-run compression with its workload.

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
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
		if err := decodeTimestamps(enc, got); err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if !reflect.DeepEqual(got, ts) {
			t.Fatalf("case %d: round trip changed timestamps", ci)
		}
		// Every truncation must error, never panic or fabricate rows.
		for cut := 0; cut < len(enc); cut++ {
			if err := decodeTimestamps(enc[:cut], make([]int64, len(ts))); err == nil && len(ts) > 1 {
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
// batch sequence; one compresses its resident runs at every step, the
// other never does. Every /query response must match byte for byte at
// every step — compression is a representation change, not a semantic
// one.
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
		cdb.Compress()
		if got, want := queryFingerprint(t, comp, "lms"), queryFingerprint(t, plain, "lms"); got != want {
			t.Fatalf("batch %d: compressed store answers differ from raw store", i)
		}
	}
	if cdb.compressionStats().chunks == 0 {
		t.Fatal("corpus produced no compressed chunks; the comparison tested nothing")
	}
}

// TestCompressedRewriteUpsert pins the one mutation a compressed run
// accepts: a batch whose timestamps exactly rewrite the run decompresses,
// merges last-write-wins and recompresses in place. Anything else opens a
// new run beside it.
func TestCompressedRewriteUpsert(t *testing.T) {
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
	if got := db.Compress(); got != 1 {
		t.Fatalf("Compress() = %d runs, want 1", got)
	}

	// Exact rewrite of field a: values update, row count and compressed
	// state are unchanged, field b keeps its stored values.
	write(rewriteBatchPts("h1", n, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"a": lineproto.Float(float64(i) + 100)}
	}))
	if got := db.PointCount(); got != n {
		t.Fatalf("exact rewrite changed row count: %d != %d", got, n)
	}
	cs := db.compressionStats()
	if cs.compressedBytes == 0 || cs.buildingBytes != 0 || cs.sealedBytes != 0 {
		t.Fatalf("exact rewrite left the run uncompressed: %+v", cs)
	}
	res, err := db.SelectContext(bg, Query{Measurement: "m"})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res[0].Rows {
		if got := row.Values[0].FloatVal(); got != float64(i)+100 {
			t.Fatalf("row %d field a = %v, want %v", i, got, float64(i)+100)
		}
		if got := row.Values[1].IntVal(); got != int64(i)*10 {
			t.Fatalf("row %d field b = %v, want %v", i, got, int64(i)*10)
		}
	}

	// A partially overlapping batch is not a rewrite: it lands in a new
	// run (possibly merged), and the duplicate timestamp resolves by merge
	// order, exactly as it would against a raw run.
	write(rewriteBatchPts("h1", 3, func(i int) map[string]lineproto.Value {
		return map[string]lineproto.Value{"a": lineproto.Float(-1)}
	})[2:])
	if got := db.PointCount(); got != n+1 {
		t.Fatalf("overlapping batch upserted instead of appending: %d rows, want %d", got, n+1)
	}
}

// TestCompressionStatsAndMetrics covers the scrape-time sweep: resident
// bytes shift from building to compressed, the chunk count appears, and
// the ratio gauge reports the achieved factor.
func TestCompressionStatsAndMetrics(t *testing.T) {
	t.Parallel()
	st := NewStore()
	db := st.CreateDatabase("lms")
	pts := make([]lineproto.Point, 2000)
	for i := range pts {
		pts[i] = lineproto.Point{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": "h0"},
			Fields: map[string]lineproto.Value{
				"user": lineproto.Float(float64(i % 97)),
				"ctx":  lineproto.Int(int64(i)),
			},
			Time: time.Unix(int64(i), 0).UTC(),
		}
	}
	if err := db.WriteBatchContext(bg, pts); err != nil {
		t.Fatal(err)
	}
	before := db.compressionStats()
	if before.buildingBytes == 0 || before.compressedBytes != 0 {
		t.Fatalf("pre-compress stats: %+v", before)
	}
	db.Compress()
	after := db.compressionStats()
	if after.compressedBytes == 0 || after.chunks == 0 {
		t.Fatalf("post-compress stats: %+v", after)
	}
	if after.rawOfCompressed <= after.compressedBytes {
		t.Fatalf("compression did not shrink the run: raw %d vs comp %d",
			after.rawOfCompressed, after.compressedBytes)
	}
}

// TestCompressConcurrentWithQueries exercises the optimistic background
// compactor against live writers and readers; run with -race. Timestamps
// are unique per series, so the final row count is exact.
func TestCompressConcurrentWithQueries(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 4})
	db.SetQueryCacheTTL(0)
	db.SetCompressAfter(time.Millisecond)
	defer db.compJob.Stop()

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
					pts[i] = lineproto.Point{
						Measurement: "m",
						Tags:        map[string]string{"hostname": string(rune('a' + g))},
						Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(seq))},
						Time:        time.Unix(seq, int64(g)).UTC(),
					}
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
			return
		default:
		}
	}
}

// TestCheckpointCompressedRoundTrip: a checkpoint taken over compressed
// runs stores the chunks verbatim (SnapV2), and recovery adopts them
// still compressed — no decode on either path — with byte-identical
// query answers.
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
	if db.Compress() == 0 {
		t.Fatal("nothing compressed before checkpoint")
	}
	before := queryFingerprint(t, st, "lms")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDurableStore(t, Durability{Dir: dir})
	if after := queryFingerprint(t, st2, "lms"); after != before {
		t.Fatal("recovered answers differ from pre-restart answers")
	}
	if cs := st2.DB("lms").compressionStats(); cs.compressedBytes == 0 {
		t.Fatal("recovery decompressed the checkpointed runs")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointV1Refused: a checkpoint in the retired PR 5 on-disk format
// (LMSCKP1 magic) must fail the open with an error naming the format. The
// WAL segments it covers are already deleted, so treating it as one more
// corrupt file to skip would recover an empty database without a word.
func TestCheckpointV1Refused(t *testing.T) {
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
	if string(data[:8]) != "LMSCKP2\n" {
		t.Fatalf("checkpoint magic %q", data[:8])
	}
	data[6] = '1'
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(StoreOptions{Durability: Durability{Dir: dir}})
	if err == nil {
		n := st2.DB("lms").PointCount()
		_ = st2.Close()
		t.Fatalf("store opened over an LMSCKP1 checkpoint and serves %d points", n)
	}
	if !strings.Contains(err.Error(), "LMSCKP1") {
		t.Fatalf("open error does not name the format: %v", err)
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
			if decodeTimestamps(data, dst) != nil {
				return
			}
			rt := make([]int64, rows)
			if err := decodeTimestamps(encodeTimestamps(dst), rt); err != nil {
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
