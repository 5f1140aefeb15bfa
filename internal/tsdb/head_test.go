package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
		run, err := decompress(want, len(m.strs.vals))
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

// TestHeadBytesMatchOneShot: rows written through the database in in-order
// batches of assorted sizes are stored as the one-shot encoders
// (compressColumns) store the same rows, byte for byte — the chunk the cuts
// merged into and the head as its chunk — where the expected bytes come from the written
// rows, not from anything the head encoded. The reference engine reads
// heads through their own streams, so this is what ties them to the codecs
// on the write path.
func TestHeadBytesMatchOneShot(t *testing.T) {
	t.Parallel()
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	rows := headRows(11, 300, true)
	var pts []lineproto.Point
	for lo, k := 0, 0; lo < len(rows); k++ {
		hi := min(lo+[]int{1, 3, 7, 2, 13, 1, 40}[k%7], len(rows))
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
	sr := m.series["host=h1"]
	var b runBuilder
	lo := 0
	for i, got := range seriesRuns(sr) {
		b.fill(m, rows[lo:lo+got.N])
		if want := compressColumns(b.ts, b.cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d of %d (rows %d to %d):\n got %+v\nwant %+v", i, len(sr.runs)+1, lo, lo+got.N, got, want)
		}
		lo += got.N
	}
	if got, want := runLayout(db), "m host=h1: 268c 32h"; lo != len(rows) || got != want {
		t.Fatalf("runs hold %d rows of %d: %s, want the cuts merged into one chunk: %s", lo, len(rows), got, want)
	}
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
