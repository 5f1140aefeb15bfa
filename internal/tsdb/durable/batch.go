package durable

// Binary encoding of one point batch — the batch frame. One frame is the
// payload of one WAL record, the body of one hinted-handoff record and
// the body of one coordinator → replica write (DESIGN.md §9, §12): the
// same bytes in all three places, encoded once.
// The line protocol would work here too, but the frame sits on the
// acknowledgement path of every write, so the format trades human
// readability for compactness and allocation-free encoding: length-
// prefixed strings, one type byte per field value, zigzag varints for
// integers and fixed 64-bit timestamps. A replayed frame must rebuild the
// exact state the live write built, so timestamps are stored already
// resolved (a point that arrived without one is encoded with the
// server-assigned time).
//
// AppendBatch is the encoder; BatchCursor is the reader and the validator,
// and what the store's shards ingest (tsdb.shard.writeFrame): a frame is
// never turned back into []lineproto.Point outside the tests, which keep a
// map-building reference decoder to hold the cursor against.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/lineproto"
)

var errShortBatch = errors.New("durable: truncated batch payload")

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFixed64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendBatch appends the binary encoding of pts to dst and returns the
// extended slice. Points whose Time is zero are encoded with nowNS, the
// server-side timestamp the caller is about to apply in memory, so a WAL
// replay reproduces the stored state exactly. Tags and fields are written
// in the point's order, which is ascending key order (lineproto.Point):
// the frame of a batch is canonical — its bytes are a function of the
// points alone — and a consumer (BatchCursor) finds them in the order a
// series key and a column builder want them.
func AppendBatch(dst []byte, pts []lineproto.Point, nowNS int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for i := range pts {
		p := &pts[i]
		dst = appendString(dst, p.Measurement)
		dst = binary.AppendUvarint(dst, uint64(len(p.Tags)))
		for _, t := range p.Tags {
			dst = appendString(dst, t.Key)
			dst = appendString(dst, t.Value)
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Fields)))
		for _, f := range p.Fields {
			dst = appendString(dst, f.Key)
			dst = appendValue(dst, f.Value)
		}
		ns := nowNS
		if !p.Time.IsZero() {
			ns = p.Time.UnixNano()
		}
		dst = appendFixed64(dst, uint64(ns))
	}
	return dst
}

func appendValue(dst []byte, v lineproto.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case lineproto.KindFloat:
		return appendFixed64(dst, math.Float64bits(v.FloatVal()))
	case lineproto.KindInt:
		return binary.AppendVarint(dst, v.IntVal())
	case lineproto.KindBool:
		if v.BoolVal() {
			return append(dst, 1)
		}
		return append(dst, 0)
	default: // KindString
		return appendString(dst, v.StringVal())
	}
}

// batchReader decodes the batch payload sequentially.
type batchReader struct {
	b []byte
}

func (r *batchReader) uvarint() (uint64, error) {
	// Lengths and counts are nearly always below 128: one byte, read
	// without the general decoder's loop.
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v, nil
	}
	return r.uvarintMulti()
}

func (r *batchReader) uvarintMulti() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShortBatch
	}
	r.b = r.b[n:]
	return v, nil
}

// count decodes an element count and validates it against the remaining
// payload: every element costs at least one byte, so a larger count is
// structurally impossible — bail before allocating, or a corrupt count
// that slipped past the CRC would panic the recovery path instead of
// letting it fall back.
func (r *batchReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)) {
		return 0, fmt.Errorf("durable: implausible count %d in %d-byte payload", n, len(r.b))
	}
	return int(n), nil
}

func (r *batchReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errShortBatch
	}
	r.b = r.b[n:]
	return v, nil
}

// bytes reads one length-prefixed string as a view of the payload, its
// capacity clipped so an append to the view cannot write into the payload.
func (r *batchReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)) < n {
		return nil, errShortBatch
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s, nil
}

func (r *batchReader) str() (string, error) {
	s, err := r.bytes()
	return string(s), err
}

func (r *batchReader) fixed64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errShortBatch
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

// fieldValue reads one kind byte and the value behind it into f.
func (r *batchReader) fieldValue(f *BatchField) error {
	if len(r.b) < 1 {
		return errShortBatch
	}
	f.Kind = lineproto.ValueKind(r.b[0])
	r.b = r.b[1:]
	var err error
	switch f.Kind {
	case lineproto.KindFloat:
		f.Num, err = r.fixed64()
	case lineproto.KindInt:
		var n int64
		n, err = r.varint()
		f.Num = uint64(n)
	case lineproto.KindBool:
		if len(r.b) < 1 {
			return errShortBatch
		}
		f.Num = 0
		if r.b[0] != 0 {
			f.Num = 1
		}
		r.b = r.b[1:]
	case lineproto.KindString:
		f.Str, err = r.bytes()
	default:
		err = fmt.Errorf("durable: unknown value kind %d", f.Kind)
	}
	return err
}

func (r *batchReader) value() (lineproto.Value, error) {
	var f BatchField
	if err := r.fieldValue(&f); err != nil {
		return lineproto.Value{}, err
	}
	return f.Value(), nil
}

// ErrInvalidPoint marks a frame that is well formed but holds a point the
// store refuses — what lineproto.Point.Validate refuses: an empty
// measurement, no fields, an empty tag key, tag value or field key.
var ErrInvalidPoint = errors.New("durable: invalid point in batch")

// BatchTag is one tag of the cursor's current point. Key and Value alias
// the frame.
type BatchTag struct{ Key, Value []byte }

// BatchField is one field of the cursor's current point. Key and Str alias
// the frame.
type BatchField struct {
	Key  []byte
	Kind lineproto.ValueKind
	Num  uint64 // KindFloat: the IEEE 754 bits; KindInt: the integer; KindBool: 0 or 1
	Str  []byte // KindString: the payload
}

// Value boxes the field's value (a string value is copied out of the frame).
func (f *BatchField) Value() lineproto.Value {
	switch f.Kind {
	case lineproto.KindFloat:
		return lineproto.Float(math.Float64frombits(f.Num))
	case lineproto.KindInt:
		return lineproto.Int(int64(f.Num))
	case lineproto.KindBool:
		return lineproto.Bool(f.Num != 0)
	default:
		return lineproto.String(string(f.Str))
	}
}

// BatchCursor reads a batch frame point by point without materialising
// points: the current point is a set of views into the frame, held in
// slices the cursor reuses, so a warm cursor walks a frame without
// allocating. It is the one reader of the format and the one validator of
// its content. Next is strict — every count is checked against the bytes
// left, unknown value kinds and trailing bytes are errors — and applies
// Point.Validate's rules (ErrInvalidPoint) as it goes, so a loop of Next
// that ends with a nil Err has accepted the frame as a whole: the check
// every door that receives frames runs before anything is logged or
// applied. In a WAL the payload sits behind a CRC32, so an error there
// means a format mismatch or a bug; off the wire it is the whole check of
// an untrusted body.
//
// The current point's Tags and Fields are always in strictly ascending key
// order. AppendBatch writes them that way; a frame that does not (records
// older than that rule, foreign producers, duplicate keys) is sorted and
// deduplicated in the cursor's own slices, the last of equal keys winning
// — the meaning a decode into maps gives it.
type BatchCursor struct {
	frame []byte
	r     batchReader // the unread rest of frame
	n     int         // declared point count
	left  int         // points Next has yet to return
	err   error

	// The current point, valid after Next or Seek returned true and until
	// the next call.
	Offset      int // where the point starts in the frame (Seek's argument)
	Measurement []byte
	Tags        []BatchTag
	Fields      []BatchField
	TimeNS      int64
}

// Reset points the cursor at frame, before its first point. The views of
// the previous frame are dropped, so a pooled cursor pins no buffer.
func (c *BatchCursor) Reset(frame []byte) {
	clear(c.Tags[:cap(c.Tags)])
	clear(c.Fields[:cap(c.Fields)])
	*c = BatchCursor{frame: frame, r: batchReader{b: frame}, Tags: c.Tags[:0], Fields: c.Fields[:0]}
	c.n, c.err = c.r.count()
	c.left = c.n
}

// Len is the point count the frame declares (0 when it could not be read).
func (c *BatchCursor) Len() int { return c.n }

// Err is the error that stopped Next or Seek, nil after a complete walk.
func (c *BatchCursor) Err() error { return c.err }

// Next advances to the next point. It returns false at the end of the
// frame and at the first error; Err tells the two apart.
func (c *BatchCursor) Next() bool {
	if c.err != nil {
		return false
	}
	if c.left == 0 {
		if len(c.r.b) != 0 {
			c.err = fmt.Errorf("durable: %d trailing bytes after batch", len(c.r.b))
		}
		return false
	}
	c.left--
	c.err = c.point(c.n - c.left - 1)
	return c.err == nil
}

// Seek makes the point starting at off — an Offset an earlier Next over
// the same frame reported — the current point again.
func (c *BatchCursor) Seek(off int) bool {
	c.r.b = c.frame[off:]
	c.err = c.point(-1)
	return c.err == nil
}

// CheckBatch walks frame with a cursor of its own and returns the number
// of points it holds, or why it is refused.
func CheckBatch(frame []byte) (int, error) {
	var c BatchCursor
	c.Reset(frame)
	for c.Next() {
	}
	return c.Len(), c.Err()
}

func invalidPoint(i int, measurement []byte, format string, args ...any) error {
	return fmt.Errorf("%w: point %d (%q): %s", ErrInvalidPoint, i, measurement, fmt.Sprintf(format, args...))
}

// point reads the i-th point of the frame, which starts where the reader
// stands, into the cursor.
func (c *BatchCursor) point(i int) (err error) {
	r := &c.r
	c.Offset = len(c.frame) - len(r.b)
	if c.Measurement, err = r.bytes(); err != nil {
		return err
	}
	if len(c.Measurement) == 0 {
		return invalidPoint(i, nil, "empty measurement")
	}

	ntags, err := r.count()
	if err != nil {
		return err
	}
	c.Tags = slices.Grow(c.Tags[:0], min(ntags, 16)) // a cold cursor sizes its scratch once
	sorted, emptyValue := true, false
	for j := 0; j < ntags; j++ {
		var t BatchTag
		if t.Key, err = r.bytes(); err != nil {
			return err
		}
		if t.Value, err = r.bytes(); err != nil {
			return err
		}
		if len(t.Key) == 0 {
			return invalidPoint(i, c.Measurement, "empty tag key")
		}
		emptyValue = emptyValue || len(t.Value) == 0
		sorted = sorted && (j == 0 || bytes.Compare(c.Tags[j-1].Key, t.Key) < 0)
		c.Tags = append(c.Tags, t)
	}
	if !sorted {
		c.Tags = canonical(c.Tags, func(t *BatchTag) []byte { return t.Key })
	}
	if emptyValue {
		// Judged after deduplication: an empty value a later duplicate
		// overwrites never reaches the store.
		for _, t := range c.Tags {
			if len(t.Value) == 0 {
				return invalidPoint(i, c.Measurement, "tag %q has empty value", t.Key)
			}
		}
	}

	nfields, err := r.count()
	if err != nil {
		return err
	}
	if nfields == 0 {
		return invalidPoint(i, c.Measurement, "no fields")
	}
	c.Fields = slices.Grow(c.Fields[:0], min(nfields, 16))
	sorted = true
	for j := 0; j < nfields; j++ {
		var f BatchField
		if f.Key, err = r.bytes(); err != nil {
			return err
		}
		if len(f.Key) == 0 {
			return invalidPoint(i, c.Measurement, "empty field key")
		}
		if err = r.fieldValue(&f); err != nil {
			return err
		}
		sorted = sorted && (j == 0 || bytes.Compare(c.Fields[j-1].Key, f.Key) < 0)
		c.Fields = append(c.Fields, f)
	}
	if !sorted {
		c.Fields = canonical(c.Fields, func(f *BatchField) []byte { return f.Key })
	}

	ns, err := r.fixed64()
	c.TimeNS = int64(ns)
	return err
}

// canonical sorts s by key, stably, and keeps the last of each run of
// equal keys. Key counts are small and this is the rare path, so an
// insertion sort in place.
func canonical[T any](s []T, key func(*T) []byte) []T {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && bytes.Compare(key(&s[j-1]), key(&s[j])) > 0; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	out := s[:0]
	for i := range s {
		if i+1 < len(s) && bytes.Equal(key(&s[i]), key(&s[i+1])) {
			continue
		}
		out = append(out, s[i])
	}
	return out
}
