package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/lineproto"
)

func samplePoints() []lineproto.Point {
	return []lineproto.Point{
		{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": "node01", "cpu": "3"},
			Fields: map[string]lineproto.Value{
				"user":   lineproto.Float(42.5),
				"ctx":    lineproto.Int(-123456789),
				"idle":   lineproto.Bool(true),
				"state":  lineproto.String("running, \"ok\""),
				"uptime": lineproto.Int(0),
			},
			Time: time.Unix(1500000000, 12345).UTC(),
		},
		{
			Measurement: "job_events",
			Fields:      map[string]lineproto.Value{"msg": lineproto.String("")},
			Time:        time.Unix(0, -42).UTC(), // pre-epoch timestamps survive
		},
		{
			Measurement: "mem",
			Tags:        map[string]string{"hostname": "node02"},
			Fields:      map[string]lineproto.Value{"used_kb": lineproto.Float(1 << 30)},
			// Zero time: encoded with the server timestamp.
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	pts := samplePoints()
	nowNS := int64(1700000000_000000000)
	payload := AppendBatch(nil, pts, nowNS)
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		want := pts[i]
		if want.Time.IsZero() {
			want.Time = time.Unix(0, nowNS).UTC()
		}
		if !got[i].Equal(want) {
			t.Errorf("point %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestBatchDecodeRejectsTruncation(t *testing.T) {
	payload := AppendBatch(nil, samplePoints(), 0)
	// Every strict prefix must fail loudly, never panic or fabricate data.
	for cut := 0; cut < len(payload); cut++ {
		if pts, err := DecodeBatch(payload[:cut]); err == nil {
			// A prefix that happens to decode cleanly must at least not
			// invent trailing points.
			if len(pts) >= len(samplePoints()) {
				t.Fatalf("cut at %d decoded %d points without error", cut, len(pts))
			}
		}
	}
	if _, err := DecodeBatch(append(payload, 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestBatchEmpty(t *testing.T) {
	payload := AppendBatch(nil, nil, 0)
	pts, err := DecodeBatch(payload)
	if err != nil || len(pts) != 0 {
		t.Fatalf("empty batch: %v, %v", pts, err)
	}
}

// TestAppendBatchGolden pins the frame's bytes: tags and fields in
// ascending key order, so the encoding is a function of the points and not
// of map iteration. WALs, hint queues and peers hold these bytes; a change
// here is a format change.
func TestAppendBatchGolden(t *testing.T) {
	const golden = "03036370750203637075013308686f73746e616d65066e6f64653031050363747801a9b4de750469646c650201057374617465030d72756e6e696e672c20226f6b2206757074696d65010004757365720000000000004045403930167b0d12d1140a6a6f625f6576656e74730001036d73670300d6ffffffffffffff036d656d0108686f73746e616d65066e6f646530320107757365645f6b6200000000000000d04100002a36fe9c9717"
	for i := 0; i < 20; i++ { // map order varies from run to run
		if got := hex.EncodeToString(AppendBatch(nil, samplePoints(), 1700000000_000000000)); got != golden {
			t.Fatalf("AppendBatch bytes changed:\n got %s\nwant %s", got, golden)
		}
	}
}

// scrambledFrame encodes pts the way AppendBatch does not: tags and fields
// in descending key order, each preceded by a duplicate of its key holding
// another value, which the last-wins rule must discard.
func scrambledFrame(pts []lineproto.Point, nowNS int64) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(pts)))
	for _, p := range pts {
		dst = appendString(dst, p.Measurement)
		var keys []string
		for k := range p.Tags {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		slices.Reverse(keys)
		dst = binary.AppendUvarint(dst, uint64(2*len(keys)))
		for _, k := range keys {
			dst = appendString(appendString(dst, k), "stale")
			dst = appendString(appendString(dst, k), p.Tags[k])
		}
		fields := p.AppendFields(nil)
		slices.Reverse(fields)
		dst = binary.AppendUvarint(dst, uint64(2*len(fields)))
		for _, f := range fields {
			dst = appendValue(appendString(dst, f.Key), lineproto.String("stale"))
			dst = appendValue(appendString(dst, f.Key), f.Value)
		}
		ns := nowNS
		if !p.Time.IsZero() {
			ns = p.Time.UnixNano()
		}
		dst = appendFixed64(dst, uint64(ns))
	}
	return dst
}

// checkCursorPoint holds the cursor's current point against want: same
// content, keys strictly ascending.
func checkCursorPoint(t *testing.T, c *BatchCursor, want lineproto.Point) {
	t.Helper()
	got := lineproto.Point{Measurement: string(c.Measurement), Time: time.Unix(0, c.TimeNS).UTC()}
	if len(c.Tags) > 0 {
		got.Tags = make(map[string]string, len(c.Tags))
	}
	for i, tag := range c.Tags {
		if i > 0 && bytes.Compare(c.Tags[i-1].Key, tag.Key) >= 0 {
			t.Fatalf("tags not strictly ascending: %q then %q", c.Tags[i-1].Key, tag.Key)
		}
		got.Tags[string(tag.Key)] = string(tag.Value)
	}
	got.Fields = make(map[string]lineproto.Value, len(c.Fields))
	for i := range c.Fields {
		f := &c.Fields[i]
		if i > 0 && bytes.Compare(c.Fields[i-1].Key, f.Key) >= 0 {
			t.Fatalf("fields not strictly ascending: %q then %q", c.Fields[i-1].Key, f.Key)
		}
		got.Fields[string(f.Key)] = f.Value()
	}
	if !got.Equal(want) {
		t.Fatalf("cursor point %+v, want %+v", got, want)
	}
}

// TestBatchCursor walks a canonical and a scrambled encoding of the same
// points: the same content either way, without allocating once warm on the
// canonical one.
func TestBatchCursor(t *testing.T) {
	pts := samplePoints()
	const nowNS = 1700000000_000000000
	want, err := DecodeBatch(AppendBatch(nil, pts, nowNS))
	if err != nil {
		t.Fatal(err)
	}
	var c BatchCursor
	for name, frame := range map[string][]byte{"canonical": AppendBatch(nil, pts, nowNS), "scrambled": scrambledFrame(pts, nowNS)} {
		c.Reset(frame)
		i := 0
		for ; c.Next(); i++ {
			checkCursorPoint(t, &c, want[i])
		}
		if c.Err() != nil || i != len(want) || c.Len() != len(want) {
			t.Fatalf("%s: read %d of %d points: %v", name, i, len(want), c.Err())
		}
		if n, err := CheckBatch(frame); err != nil || n != len(want) {
			t.Fatalf("%s: CheckBatch %d, %v", name, n, err)
		}
	}
	frame := AppendBatch(nil, pts, nowNS)
	if allocs := testing.AllocsPerRun(50, func() {
		c.Reset(frame)
		for c.Next() {
		}
	}); allocs != 0 {
		t.Fatalf("a warm cursor allocates %.0f times per frame", allocs)
	}
}

// TestBatchCursorRefuses: what Point.Validate refuses is ErrInvalidPoint
// wherever in the frame it sits; a frame that is not one is a plain error;
// an empty value a later duplicate overwrites is no defect.
func TestBatchCursorRefuses(t *testing.T) {
	v := map[string]lineproto.Value{"v": lineproto.Float(1)}
	good := lineproto.Point{Measurement: "m", Tags: map[string]string{"t": "x"}, Fields: v}
	for name, bad := range map[string]lineproto.Point{
		"empty measurement": {Fields: v},
		"no fields":         {Measurement: "m"},
		"empty tag key":     {Measurement: "m", Tags: map[string]string{"": "x"}, Fields: v},
		"empty tag value":   {Measurement: "m", Tags: map[string]string{"t": ""}, Fields: v},
		"empty field key":   {Measurement: "m", Fields: map[string]lineproto.Value{"": lineproto.Float(1)}},
	} {
		if bad.Validate() == nil {
			t.Fatalf("%s: Point.Validate accepts the fixture", name)
		}
		for _, pts := range [][]lineproto.Point{{bad}, {good, bad}, {bad, good}} {
			if _, err := CheckBatch(AppendBatch(nil, pts, 1)); !errors.Is(err, ErrInvalidPoint) {
				t.Errorf("%s: %v, want ErrInvalidPoint", name, err)
			}
		}
	}
	frame := AppendBatch(nil, []lineproto.Point{good}, 1)
	for name, broken := range map[string][]byte{
		"truncated": frame[:len(frame)-3], "trailing": append(append([]byte(nil), frame...), 0), "empty": nil,
	} {
		if _, err := CheckBatch(broken); err == nil || errors.Is(err, ErrInvalidPoint) {
			t.Errorf("%s: %v, want a structural error", name, err)
		}
	}
	// m,t="" overwritten by t=x: the decode into maps never saw the empty value.
	dup := binary.AppendUvarint(nil, 1)
	dup = binary.AppendUvarint(appendString(dup, "m"), 2)
	dup = appendString(appendString(dup, "t"), "")
	dup = appendString(appendString(dup, "t"), "x")
	dup = appendValue(appendString(binary.AppendUvarint(dup, 1), "v"), lineproto.Float(1))
	dup = appendFixed64(dup, 1)
	if n, err := CheckBatch(dup); err != nil || n != 1 {
		t.Fatalf("overwritten empty tag value: %d, %v", n, err)
	}
}
