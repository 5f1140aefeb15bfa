package tsdb

// The frame door: POST /write with BatchContentType takes one durable
// batch frame — the cluster's coordinator → replica wire (DESIGN.md §12) —
// where the text door takes line protocol. Only the codec differs: every
// check the text door applies (admission gate, body cap, strict decode,
// Point.Validate, durable-open failure → 500) must hold for a frame, and
// the received frame is what the WAL logs.

import (
	"bytes"
	"context"
	"encoding/binary"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

func postFrame(t *testing.T, base, query string, frame []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/write?"+query, BatchContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func framePoint(meas string, tags map[string]string, fields map[string]lineproto.Value) lineproto.Point {
	return lineproto.Point{Measurement: meas, Tags: tags, Fields: fields, Time: time.Unix(1600000000, 0).UTC()}
}

// walBytes is the size of db's live WAL: unchanged means nothing was logged.
func walBytes(db *DB) int64 { return db.dur.wal.TotalSize() }

func TestHTTPWriteFrame(t *testing.T) {
	store := openDurableStore(t, Durability{Dir: t.TempDir(), Fsync: durable.FsyncOff})
	defer store.Close()
	h := NewHandler(store)
	srv := httptest.NewServer(h)
	defer srv.Close()
	db, err := store.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}

	good := durable.AppendBatch(nil, corpusBatches()[0], 1)
	v := map[string]lineproto.Value{"v": lineproto.Float(1)}
	badKind := durable.AppendBatch(nil, []lineproto.Point{framePoint("m", nil, v)}, 1)
	// ... | key "v" | kind | 8 value bytes | 8 timestamp bytes
	badKind[len(badKind)-17] = 9

	rejected := []struct {
		name, query string
		frame       []byte
	}{
		{"truncated", "db=lms", good[:len(good)-3]},
		{"trailing bytes", "db=lms", append(append([]byte(nil), good...), 0)},
		{"implausible count", "db=lms", []byte{0xff, 0xff, 0x03}},
		{"unknown value kind", "db=lms", badKind},
		{"line protocol in a frame", "db=lms", []byte("cpu,hostname=h1 user=1 1600000000000000000\n")},
		{"empty measurement", "db=lms", durable.AppendBatch(nil, []lineproto.Point{framePoint("", nil, v)}, 1)},
		{"no fields", "db=lms", durable.AppendBatch(nil, []lineproto.Point{framePoint("m", nil, nil)}, 1)},
		{"empty tag value", "db=lms", durable.AppendBatch(nil, []lineproto.Point{framePoint("m", map[string]string{"hostname": ""}, v)}, 1)},
		{"second point invalid", "db=lms", durable.AppendBatch(nil, []lineproto.Point{framePoint("m", nil, v), framePoint("", nil, v)}, 1)},
		{"precision ms", "db=lms&precision=ms", good},
	}
	for _, tc := range rejected {
		before := walBytes(db)
		if resp := postFrame(t, srv.URL, tc.query, tc.frame); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if n := db.PointCount(); n != 0 {
			t.Fatalf("%s: refused frame applied %d points", tc.name, n)
		}
		if after := walBytes(db); after != before {
			t.Fatalf("%s: refused frame grew the WAL by %d bytes", tc.name, after-before)
		}
	}

	// Well-formed: 204, queryable, and the WAL record is the frame as received.
	before := walBytes(db)
	if resp := postFrame(t, srv.URL, "db=lms&local=1&precision=ns", good); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("well-formed frame: status %d, want 204", resp.StatusCode)
	}
	if n, want := db.PointCount(), len(corpusBatches()[0]); n != want {
		t.Fatalf("frame applied %d points, want %d", n, want)
	}
	if grew := walBytes(db) - before; grew != int64(len(good))+8 {
		t.Fatalf("WAL grew by %d bytes for a %d-byte frame (+8 of record header)", grew, len(good))
	}
	seg, err := os.ReadFile(db.dur.wal.SegmentPath(db.dur.wal.CurrentSegment()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(seg, good) {
		t.Fatal("WAL does not hold the received frame verbatim")
	}
	res, err := queryText(&Client{BaseURL: srv.URL, Database: "lms"}, "SELECT count(user) FROM cpu")
	if err != nil || len(res) != 1 || len(res[0].Series) != 1 {
		t.Fatalf("query after frame write: %+v, %v", res, err)
	}

	// The text door next to it is untouched, content type or none.
	for _, ct := range []string{"text/plain", ""} {
		resp, err := http.Post(srv.URL+"/write?db=lms&precision=s", ct, strings.NewReader("mem,hostname=h1 used=1 1600000000\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("text write (Content-Type %q): status %d", ct, resp.StatusCode)
		}
	}

	// Body cap: a frame over it is a 413, exactly at it a 204.
	h.MaxBodyBytes = int64(len(good)) - 1
	if resp := postFrame(t, srv.URL, "db=lms", good); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame: status %d, want 413", resp.StatusCode)
	}
	h.MaxBodyBytes = int64(len(good))
	if resp := postFrame(t, srv.URL, "db=lms", good); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("frame at the cap: status %d, want 204", resp.StatusCode)
	}

	// A database that cannot open durably fails the write, frame or not.
	if resp := postFrame(t, srv.URL, "db=..", good); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("frame into an unopenable database: status %d, want 500", resp.StatusCode)
	}
}

// TestClientWritesAreSizedAndShed: a Client write must reach the server
// with its Content-Length — that is what the admission gate charges
// (lms-db -max-inflight-mb) — on the text door and on the frame door. A
// body net/http cannot size goes out chunked, is charged 0 bytes, and the
// byte budget never engages on the router → db or the peer hop.
func TestClientWritesAreSizedAndShed(t *testing.T) {
	store := NewStore()
	h := NewHandler(store)
	var mu sync.Mutex
	var lengths []int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		lengths = append(lengths, r.ContentLength)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Database: "lms", MaxRetries: -1}
	pts := corpusBatches()[0]
	text, err := lineproto.Encode(pts)
	if err != nil {
		t.Fatal(err)
	}
	frame := durable.AppendBatch(nil, pts, 1)
	writes := []struct {
		name string
		size int
		do   func() error
	}{
		{"text", len(text), func() error { return c.WritePointsContext(context.Background(), pts) }},
		{"frame", len(frame), func() error { return c.WriteFrameContext(context.Background(), frame) }},
	}
	for _, w := range writes {
		h.SetAdmission(0, int64(w.size)-1)
		err := w.do()
		if err == nil || !strings.Contains(err.Error(), "429") {
			t.Errorf("%s write under a byte budget below its body: err %v, want a 429", w.name, err)
		}
		h.SetAdmission(0, int64(w.size))
		if err := w.do(); err != nil {
			t.Errorf("%s write inside the byte budget: %v", w.name, err)
		}
		mu.Lock()
		for _, n := range lengths {
			if n != int64(w.size) {
				t.Errorf("%s write arrived with Content-Length %d, want %d", w.name, n, w.size)
			}
		}
		lengths = lengths[:0]
		mu.Unlock()
	}
	if n, want := store.DB("lms").PointCount(), len(pts); n != want {
		t.Fatalf("%d points stored, want %d (two admitted writes of one batch upsert)", n, want)
	}
}

// TestReadBodyLimited: a declared length sizes the buffer, and neither a
// declared length nor its absence changes what is read or refused.
func TestReadBodyLimited(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 3000)
	for _, size := range []int64{-1, 0, 10, 3000, 1 << 40} {
		body, tooLarge, err := readBodyLimited(bytes.NewReader(data), size, 4096)
		if err != nil || tooLarge || !bytes.Equal(body, data) {
			t.Fatalf("size %d: read %d bytes, tooLarge=%v, err=%v", size, len(body), tooLarge, err)
		}
		if _, tooLarge, err = readBodyLimited(bytes.NewReader(data), size, 2999); err != nil || !tooLarge {
			t.Fatalf("size %d, cap 2999: tooLarge=%v, err=%v", size, tooLarge, err)
		}
	}
	body, _, _ := readBodyLimited(bytes.NewReader(data), 3000, 4096)
	if c := cap(body); c > 3000+bytes.MinRead {
		t.Fatalf("declared length 3000 reserved %d bytes", c)
	}
}

// TestFrameWALReplayByteIdentical: a replica whose WAL holds received
// frames — logged verbatim, tag order and all as the coordinator encoded
// them — recovers after a crash to byte-identical query answers.
func TestFrameWALReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	batches := corpusBatches()
	st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
	h := NewHandler(st)
	var frames [][]byte
	for _, b := range batches {
		frame := durable.AppendBatch(nil, b, 1)
		frames = append(frames, frame)
		serveFrame(t, h, frame)
	}
	want := queryFingerprint(t, st, "lms")
	if oracle := queryFingerprint(t, memoryOracle(t, batches), "lms"); want != oracle {
		t.Fatal("frame ingest differs from the in-memory oracle")
	}
	st.Abort() // crash: everything lives only in the WAL

	// The log is the received frames, record for record.
	segs, _ := filepath.Glob(filepath.Join(dir, "lms", "wal-*.log"))
	var log []byte
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, b...)
	}
	for i, frame := range frames {
		rec := binary.LittleEndian.AppendUint32(nil, uint32(len(frame)))
		at := bytes.Index(log, rec)
		if at < 0 || !bytes.HasPrefix(log[at+8:], frame) {
			t.Fatalf("frame %d is not in the WAL as received", i)
		}
		log = log[at+8+len(frame):]
	}

	st2 := openDurableStore(t, Durability{Dir: dir})
	defer st2.Abort()
	if got := queryFingerprint(t, st2, "lms"); got != want {
		t.Fatal("WAL replay of received frames differs from the pre-crash answers")
	}
}

// scrambledFrame encodes pts the way durable.AppendBatch does not: tags
// and fields in descending key order, each preceded by a duplicate of its
// key holding a value the last-wins rule must discard.
func scrambledFrame(pts []lineproto.Point) []byte {
	str := func(dst []byte, s string) []byte {
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
	}
	dst := binary.AppendUvarint(nil, uint64(len(pts)))
	for _, p := range pts {
		dst = str(dst, p.Measurement)
		keys := slices.Sorted(maps.Keys(p.Tags))
		slices.Reverse(keys)
		dst = binary.AppendUvarint(dst, uint64(2*len(keys)))
		for _, k := range keys {
			dst = str(str(dst, k), "stale")
			dst = str(str(dst, k), p.Tags[k])
		}
		fields := p.AppendFields(nil)
		slices.Reverse(fields)
		dst = binary.AppendUvarint(dst, uint64(2*len(fields)))
		for _, f := range fields {
			dst = str(append(str(dst, f.Key), byte(lineproto.KindString)), "stale")
			// One field in the frame's own codec, cut out of a one-point frame:
			// ... | key | kind | value | 8 timestamp bytes.
			one := durable.AppendBatch(nil, []lineproto.Point{{Measurement: "m", Fields: map[string]lineproto.Value{f.Key: f.Value}}}, 1)
			dst = append(dst, one[5:len(one)-8]...)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Time.UnixNano()))
	}
	return dst
}

// TestFrameOrderDoesNotReachTheStore: a frame with unsorted and duplicated
// tags and fields (what an old WAL record or a foreign producer holds), its
// canonical re-encoding and the same points through WriteBatch build the
// same store — byte-identical checkpoint files and /query bodies — because
// all three are ingested from the cursor's one canonical view.
func TestFrameOrderDoesNotReachTheStore(t *testing.T) {
	doors := []struct {
		name  string
		write func(t *testing.T, st *Store, h *Handler, pts []lineproto.Point)
	}{
		{"WriteBatch", func(t *testing.T, st *Store, _ *Handler, pts []lineproto.Point) {
			if err := st.DB("lms").WriteBatchContext(bg, pts); err != nil {
				t.Fatal(err)
			}
		}},
		{"canonical frame", func(t *testing.T, _ *Store, h *Handler, pts []lineproto.Point) {
			serveFrame(t, h, durable.AppendBatch(nil, pts, 1))
		}},
		{"scrambled frame", func(t *testing.T, _ *Store, h *Handler, pts []lineproto.Point) {
			frame := scrambledFrame(pts)
			if bytes.Equal(frame, durable.AppendBatch(nil, pts, 1)) {
				t.Fatal("the scrambled frame is canonical")
			}
			serveFrame(t, h, frame)
		}},
	}
	var wantQueries string
	var wantCheckpoint []byte
	for _, door := range doors {
		dir := t.TempDir()
		st := openDurableStore(t, Durability{Dir: dir, Fsync: durable.FsyncOff})
		if _, err := st.OpenDatabase("lms"); err != nil {
			t.Fatal(err)
		}
		h := NewHandler(st)
		for _, b := range corpusBatches() {
			door.write(t, st, h, b)
		}
		queries := queryFingerprint(t, st, "lms")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "lms", "checkpoint-*.snap"))
		if len(snaps) != 1 {
			t.Fatalf("%s: %d checkpoint files after Close", door.name, len(snaps))
		}
		checkpoint, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		if wantQueries == "" {
			wantQueries, wantCheckpoint = queries, checkpoint
			if oracle := queryFingerprint(t, memoryOracle(t, corpusBatches()), "lms"); queries != oracle {
				t.Fatal("durable WriteBatch differs from the in-memory oracle")
			}
			continue
		}
		if queries != wantQueries {
			t.Errorf("%s: /query bodies differ from WriteBatch's", door.name)
		}
		if !bytes.Equal(checkpoint, wantCheckpoint) {
			t.Errorf("%s: checkpoint bytes differ from WriteBatch's", door.name)
		}
	}
}

// serveFrame posts one frame to h's frame door and wants a 204.
func serveFrame(t *testing.T, h *Handler, frame []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", "/write?db=lms&local=1", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BatchContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("frame write: status %d: %s", rec.Code, rec.Body.String())
	}
}
