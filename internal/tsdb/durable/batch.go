package durable

// Binary encoding of one point batch — the batch frame. One frame is the
// payload of one WAL record, the body of one hinted-handoff record and
// the body of one coordinator → replica write (DESIGN.md §9, §12): the
// same bytes in all three places, encoded once.
// The line protocol would work here too, but the frame sits on the
// acknowledgement path of every write, so the format trades human
// readability for compactness and allocation-free encoding: length-
// prefixed strings, one type byte per field value, zigzag varints for
// integers and fixed 64-bit timestamps. The decoded batch must rebuild
// the exact points that were applied in memory, so timestamps are stored
// already resolved (a point that arrived without one is encoded with the
// server-assigned time).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

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
// replay reproduces the stored state exactly.
func AppendBatch(dst []byte, pts []lineproto.Point, nowNS int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	fieldBuf := make([]lineproto.Field, 0, 8) // on the stack up to 8 fields
	for i := range pts {
		p := &pts[i]
		dst = appendString(dst, p.Measurement)
		dst = binary.AppendUvarint(dst, uint64(len(p.Tags)))
		// Tag order does not matter for replay (series keys sort them),
		// but AppendFields gives fields a deterministic order for free.
		for k, v := range p.Tags {
			dst = appendString(dst, k)
			dst = appendString(dst, v)
		}
		fieldBuf = p.AppendFields(fieldBuf[:0])
		dst = binary.AppendUvarint(dst, uint64(len(fieldBuf)))
		for _, f := range fieldBuf {
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

func (r *batchReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.b)) < n {
		return "", errShortBatch
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *batchReader) fixed64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errShortBatch
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *batchReader) value() (lineproto.Value, error) {
	if len(r.b) < 1 {
		return lineproto.Value{}, errShortBatch
	}
	kind := lineproto.ValueKind(r.b[0])
	r.b = r.b[1:]
	switch kind {
	case lineproto.KindFloat:
		bits, err := r.fixed64()
		if err != nil {
			return lineproto.Value{}, err
		}
		return lineproto.Float(math.Float64frombits(bits)), nil
	case lineproto.KindInt:
		n, err := r.varint()
		if err != nil {
			return lineproto.Value{}, err
		}
		return lineproto.Int(n), nil
	case lineproto.KindBool:
		if len(r.b) < 1 {
			return lineproto.Value{}, errShortBatch
		}
		b := r.b[0]
		r.b = r.b[1:]
		return lineproto.Bool(b != 0), nil
	case lineproto.KindString:
		s, err := r.str()
		if err != nil {
			return lineproto.Value{}, err
		}
		return lineproto.String(s), nil
	default:
		return lineproto.Value{}, fmt.Errorf("durable: unknown value kind %d", kind)
	}
}

// DecodeBatch decodes one AppendBatch payload back into points, strictly:
// every count is checked against the bytes left, unknown value kinds and
// trailing bytes are errors. In the WAL the payload sits behind a CRC32
// frame, so a decode error there means a format version mismatch or a
// software bug, not media corruption; off the wire (tsdb.Handler's frame
// door) it is the whole structural check of an untrusted body, and
// Point.Validate follows it.
func DecodeBatch(payload []byte) ([]lineproto.Point, error) {
	r := &batchReader{b: payload}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	pts := make([]lineproto.Point, 0, n)
	for i := 0; i < n; i++ {
		var p lineproto.Point
		if p.Measurement, err = r.str(); err != nil {
			return nil, err
		}
		ntags, err := r.count()
		if err != nil {
			return nil, err
		}
		if ntags > 0 {
			p.Tags = make(map[string]string, ntags)
			for j := 0; j < ntags; j++ {
				k, err := r.str()
				if err != nil {
					return nil, err
				}
				v, err := r.str()
				if err != nil {
					return nil, err
				}
				p.Tags[k] = v
			}
		}
		nfields, err := r.count()
		if err != nil {
			return nil, err
		}
		p.Fields = make(map[string]lineproto.Value, nfields)
		for j := 0; j < nfields; j++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			p.Fields[k] = v
		}
		ns, err := r.fixed64()
		if err != nil {
			return nil, err
		}
		p.Time = time.Unix(0, int64(ns)).UTC()
		pts = append(pts, p)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after batch", len(r.b))
	}
	return pts, nil
}
