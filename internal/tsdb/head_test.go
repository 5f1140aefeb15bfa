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
	"repro/internal/tsdb/durable"
)

// headRow is one generated row: its timestamp and its fields in ascending
// key order, as a batch cursor presents them.
type headRow struct {
	ts     int64
	fields []durable.BatchField
}

// headRows generates n in-order rows (equal timestamps included) over five
// fields: a bool, a float (NaN payloads, infinities, -0, repeats), an int
// (small steps and full-range jumps), a string whose vocabulary grows with
// the row count — so ids outgrow the packing a head started with — and a
// field whose kind changes from row to row, promoting its column to
// mixed (unless mixed is false). Every field skips rows, and one appears
// only late.
func headRows(seed int64, n int, mixed bool) []headRow {
	r := rand.New(rand.NewSource(seed))
	late := r.Intn(n + 1)
	t := int64(r.Intn(1000)) * 10
	prevF := 0.0
	rows := make([]headRow, 0, n)
	for i := 0; i < n; i++ {
		t += int64(r.Intn(3)) * 10
		var fs []durable.BatchField
		add := func(key string, kind lineproto.ValueKind, num uint64, str string) {
			fs = append(fs, durable.BatchField{Key: []byte(key), Kind: kind, Num: num, Str: []byte(str)})
		}
		if r.Intn(4) > 0 {
			add("b", lineproto.KindBool, uint64(r.Intn(2)), "")
		}
		if r.Intn(5) > 0 {
			f := []float64{r.NormFloat64() * 100, prevF, math.Inf(1), math.Copysign(0, -1),
				math.Float64frombits(0x7ff8000000000000 | r.Uint64()&0xfffff), float64(i)}[r.Intn(6)]
			prevF = f
			add("f", lineproto.KindFloat, math.Float64bits(f), "")
		}
		if r.Intn(5) > 0 {
			v := int64(r.Intn(7)) - 3
			if r.Intn(10) == 0 {
				v = int64(r.Uint64())
			}
			add("i", lineproto.KindInt, uint64(v), "")
		}
		if r.Intn(3) > 0 {
			add("s", lineproto.KindString, 0, fmt.Sprintf("w%d", r.Intn(i+1)))
		}
		if i >= late && r.Intn(3) > 0 {
			kind := 1
			if mixed {
				kind = r.Intn(4)
			}
			switch kind {
			case 0:
				add("x", lineproto.KindFloat, math.Float64bits(r.Float64()), "")
			case 1:
				add("x", lineproto.KindInt, uint64(r.Intn(100)), "")
			case 2:
				add("x", lineproto.KindBool, 1, "")
			default:
				add("x", lineproto.KindString, 0, "x")
			}
		}
		if len(fs) == 0 {
			add("i", lineproto.KindInt, uint64(i), "")
		}
		rows = append(rows, headRow{t, fs})
	}
	return rows
}

// fill makes rows the builder's finished block.
func (b *runBuilder) fill(m *measurement, rows []headRow) {
	b.reset()
	for _, r := range rows {
		b.addPoint(m, r.fields, r.ts)
	}
	b.finish()
}

func headMeasurement() *measurement {
	return &measurement{name: "m", series: map[string]*series{}, fields: map[string]lineproto.ValueKind{}, names: map[string]string{}}
}

// FuzzHeadAppend: rows appended to a head in blocks of any sizes give the
// chunk the one-shot encoders give over the same rows in one block — the
// same bytes for every column kind, presence, packing width and mixed
// promotion, and the same header — so a cut chunk, a checkpoint and a
// merge never depend on how the rows arrived. A late block the head
// absorbs gives the chunk of the stable merge (mergeRuns) of both, as the
// write path always did.
func FuzzHeadAppend(f *testing.F) {
	f.Add(int64(1), uint8(40), []byte{0, 3, 7, 1, 31}, uint8(3))
	f.Add(int64(2), uint8(1), []byte{}, uint8(0))
	f.Add(int64(3), uint8(200), []byte{255, 0, 0, 9}, uint8(17))
	f.Add(int64(4), uint8(70), []byte{64}, uint8(200))
	f.Add(int64(5), uint8(31), []byte{2}, uint8(9))
	f.Add(int64(6), uint8(20), []byte{0}, uint8(4))
	f.Add(int64(8), uint8(9), []byte{1}, uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, splits []byte, late uint8) {
		if n == 0 {
			return
		}
		rows := headRows(seed, int(n), seed%2 == 0)
		m := headMeasurement()
		var b runBuilder
		b.fill(m, rows)
		want := compressColumns(b.ts, b.cols)

		h := &head{}
		for lo, k := 0, 0; lo < len(rows); k++ {
			size := 1
			if k < len(splits) {
				size += int(splits[k] % 48)
			}
			hi := min(lo+size, len(rows))
			b.fill(m, rows[lo:hi])
			h.append(b.ts, b.cols, m.strs.vals, &b.enc, nil)
			lo = hi
		}
		if got := h.chunk(); !reflect.DeepEqual(got, want) {
			t.Fatalf("appended in blocks %v:\n got %+v\nwant %+v", splits, got, want)
		}

		// A late block: one to three generated rows moved to a time inside
		// the head's, by late — every fourth just before the head's last
		// row, where one row takes lateRow's rewind.
		lateRows := headRows(seed+1, 1+int(late%3), seed%4 < 2)
		at := h.minTS + (h.maxTS-h.minTS)*int64(late)/255
		if late%4 == 0 {
			at = h.maxTS - 1 - int64(late/4%3)
		}
		for i := range lateRows {
			lateRows[i].ts = at + int64(i)*int64(late%2)
		}
		b.fill(m, lateRows)
		run, err := decodeChunk(want, len(m.strs.vals), &decodeArena{})
		if err != nil {
			t.Fatal(err)
		}
		merged := mergeRuns(m.strs.vals, run, &colRun{ts: b.ts, cols: b.cols})
		want = compressColumns(merged.ts, merged.cols)
		if blk := (&colRun{ts: b.ts, cols: b.cols}); !h.lateRow(blk, m.strs.vals, &b.enc) {
			h.absorb(blk, m.strs.vals, &b.enc)
		}
		if got := h.chunk(); !reflect.DeepEqual(got, want) {
			t.Fatalf("absorbed a late block at %d:\n got %+v\nwant %+v", at, got, want)
		}
	})
}

// TestHeadBytesMatchOneShot: rows written through the database are stored
// as the one-shot encoders (compressColumns) store the same rows, byte for
// byte, on every path that encodes a chunk: in-order batches of assorted
// sizes — the head, and the chunk its cuts merged by appending them onto
// one head — an out-of-order span, merged and encoded onto a head of its
// own, and a retention sweep's cut of a chunk and of the head. The
// expected bytes come from the written rows, merged (mergeRuns) and cut
// (sliceRun) where the store merged and cut them, not from anything a head
// encoded. The reference engine reads heads through their own streams, so
// this is what ties them to the codecs on the write path.
func TestHeadBytesMatchOneShot(t *testing.T) {
	t.Parallel()
	rows := headRows(11, 300, true)
	// write sends rows to one series in in-order batches of the sizes
	// given, cycled, and returns the series' measurement and the series.
	write := func(t *testing.T, db *DB, rows []headRow, sizes ...int) (*measurement, *series) {
		t.Helper()
		var pts []lineproto.Point
		for lo, k := 0, 0; lo < len(rows); k++ {
			hi := min(lo+sizes[k%len(sizes)], len(rows))
			pts = pts[:0]
			for _, r := range rows[lo:hi] {
				fields := map[string]lineproto.Value{}
				for _, f := range r.fields {
					v := lineproto.Int(int64(f.Num))
					switch f.Kind {
					case lineproto.KindFloat:
						v = lineproto.Float(math.Float64frombits(f.Num))
					case lineproto.KindBool:
						v = lineproto.Bool(f.Num != 0)
					case lineproto.KindString:
						v = lineproto.String(string(f.Str))
					}
					fields[string(f.Key)] = v
				}
				pts = append(pts, lineproto.NewPoint("m", map[string]string{"host": "h1"}, fields, time.Unix(0, r.ts)))
			}
			if err := db.WriteBatchContext(bg, pts); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		m := db.shardFor("m").measurements["m"]
		return m, m.series["host=h1"]
	}
	// check compares the series' runs, newest last, with want.
	check := func(t *testing.T, db *DB, sr *series, layout string, want ...*compRun) {
		t.Helper()
		if got := runLayout(db); got != "m host=h1: "+layout {
			t.Fatalf("layout %s, want %s", got, layout)
		}
		for i, got := range seriesRuns(sr) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("run %d of %s:\n got %+v\nwant %+v", i, layout, got, want[i])
			}
		}
	}
	// block returns rows as the builder's finished block, a run of its own.
	block := func(m *measurement, rows []headRow) *colRun {
		var b runBuilder
		b.fill(m, rows)
		return &colRun{ts: b.ts, cols: b.cols}
	}
	oneShot := func(r *colRun) *compRun { return compressColumns(r.ts, r.cols) }

	t.Run("in order", func(t *testing.T) {
		t.Parallel()
		db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
		m, sr := write(t, db, rows, 1, 3, 7, 2, 13, 1, 40)
		// The cuts merged into one chunk.
		check(t, db, sr, "268c 32h", oneShot(block(m, rows[:268])), oneShot(block(m, rows[268:])))
	})

	t.Run("late span", func(t *testing.T) {
		t.Parallel()
		db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
		// A full head of rows 32-63 is cut by the block of rows 0-31 behind
		// it, which rows 64-95 cut in turn: the two chunks overlap, and the
		// second cut merges them pairwise, rows 32-63 first on equal
		// timestamps.
		write(t, db, rows[32:64], 32)
		write(t, db, rows[:32], 32)
		m, sr := write(t, db, rows[64:96], 32)
		merged := mergeRuns(m.strs.vals, block(m, rows[32:64]), block(m, rows[:32]))
		check(t, db, sr, "64c 32h", oneShot(merged), oneShot(block(m, rows[64:96])))
	})

	t.Run("retention", func(t *testing.T) {
		t.Parallel()
		db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
		// Without the last row, whose timestamp the three before it share:
		// a cut then keeps rows in which a column that skips rows in the
		// head has a value in each.
		rows := rows[:299]
		m, sr := write(t, db, rows, 1, 3, 7, 2, 13, 1, 40)
		cut := func(r *colRun, from int64) *compRun {
			lo := sort.Search(len(r.ts), func(i int) bool { return r.ts[i] >= from })
			return oneShot(r.sliceRun(lo, len(r.ts)))
		}
		// A sweep through the chunk re-encodes the rows it keeps of it ...
		at := rows[264].ts
		db.pruneNow(at)
		kept := cut(block(m, rows[:268]), at)
		check(t, db, sr, fmt.Sprintf("%dc 31h", kept.N), kept, oneShot(block(m, rows[268:])))
		// ... and one through the head drops the chunk and cuts the head.
		at = rows[296].ts
		db.pruneNow(at)
		kept = cut(block(m, rows[268:]), at)
		check(t, db, sr, fmt.Sprintf("%dh", kept.N), kept)
	})
}

// TestHeadConcurrentSnapshots: readers snapshot and decode heads while a
// writer appends to them, cuts them, promotes a column to mixed, widens a
// string column's packing and rewrites a head in place; run with -race.
// Every row a reader decodes holds exactly the values written at its
// timestamp, so a reader that saw a byte or a bitmap being rewritten, or a
// stream without its partial byte, fails here.
func TestHeadConcurrentSnapshots(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	const hosts, rows = 3, 300
	point := func(host, i int, bump float64) lineproto.Point {
		fields := map[string]lineproto.Value{
			"f": lineproto.Float(float64(i)*1.25 + bump),
			"s": lineproto.String(fmt.Sprintf("w%d", i%97)),
		}
		if i%3 == 0 {
			fields["i"] = lineproto.Int(int64(i) * 7)
		}
		if i >= 150 {
			fields["x"] = lineproto.Int(int64(i)) // kind change below
			if i%2 == 1 {
				fields["x"] = lineproto.String("odd")
			}
		}
		return lineproto.NewPoint(
			"m",
			map[string]string{"h": fmt.Sprint(host)},
			fields,
			time.Unix(int64(i), 0),
		)
	}
	check := func(r Row, cols []string) error {
		i := int(r.Time.Unix())
		for ci, c := range cols {
			v := r.Values[ci]
			var ok bool
			switch c {
			case "f":
				ok = v != nil && (v.FloatVal() == float64(i)*1.25 || v.FloatVal() == float64(i)*1.25+1000)
			case "s":
				ok = v != nil && v.StringVal() == fmt.Sprintf("w%d", i%97)
			case "i":
				ok = (i%3 == 0) == (v != nil) && (v == nil || v.IntVal() == int64(i)*7)
			case "x":
				ok = (i >= 150) == (v != nil)
			default:
				ok = true
			}
			if !ok {
				return fmt.Errorf("row at %d: %s = %v", i, c, v)
			}
		}
		return nil
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := db.SelectContext(bg, Query{Measurement: "m", GroupByTags: []string{"h"}})
				if err == ErrNoMeasurement {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range res {
					for _, row := range s.Rows {
						if err := check(row, s.Columns); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < rows; i++ {
		for h := 0; h < hosts; h++ {
			if err := db.WriteBatchContext(bg, []lineproto.Point{point(h, i, 0)}); err != nil {
				t.Fatal(err)
			}
			if i%sealRows == 0 { // the head holds row i alone: an exact rewrite
				if err := db.WriteBatchContext(bg, []lineproto.Point{point(h, i, 1000)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(done)
	wg.Wait()
	if got := db.PointCount(); got != hosts*rows {
		t.Fatalf("%d rows stored, want %d", got, hosts*rows)
	}
}
