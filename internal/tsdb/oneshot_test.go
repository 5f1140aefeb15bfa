package tsdb

// The one-shot chunk encoders: each runs a codec's state (tsEnc, colEnc)
// over a whole column in one go, into a pooled stream. The store encodes
// every chunk through a head (head.append, encodeRun); these are the
// reference its bytes are checked against (FuzzHeadAppend,
// TestHeadBytesMatchOneShot), and the encoders the codec round trips and
// the decode fuzz seeds use.

import (
	mbits "math/bits"
	"sync"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// writerPool recycles the one-shot encoders' streams (newBitWriter …
// bytes): a chunk is written into warm scratch and kept at its exact size.
var writerPool = sync.Pool{New: func() any { return new(bitWriter) }}

func newBitWriter() *bitWriter {
	w := writerPool.Get().(*bitWriter)
	w.b, w.cur, w.n = w.b[:0], 0, 0
	return w
}

// bytes returns the finished stream at its exact size and recycles w.
func (w *bitWriter) bytes() []byte {
	var out []byte
	if size := w.size(); size > 0 {
		out = w.appendTo(make([]byte, 0, size))
	}
	writerPool.Put(w)
	return out
}

// encodeTimestamps compresses a sorted timestamp column in one go.
func encodeTimestamps(ts []int64) []byte {
	w := newBitWriter()
	var e tsEnc
	for _, t := range ts {
		e.put(w, t)
	}
	return w.bytes()
}

// encodeFloats compresses a float column in one go.
func encodeFloats(vals []float64) []byte {
	w := newBitWriter()
	var e colEnc
	for i, v := range vals {
		e.putFloat(w, v, i == 0)
	}
	return w.bytes()
}

// encodeInts compresses an int/bool column in one go.
func encodeInts(vals []int64) []byte {
	w := newBitWriter()
	var e colEnc
	for _, v := range vals {
		e.putInt(w, v)
	}
	return w.bytes()
}

// encodeStrIDs packs interned string ids at the bit width of the largest
// id in the column.
func encodeStrIDs(ids []uint32) (data []byte, width uint8) {
	maxID := uint32(0)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	width = uint8(mbits.Len32(maxID))
	if width == 0 {
		return nil, 0 // every id is 0
	}
	w := newBitWriter()
	for _, id := range ids {
		w.writeBits(uint64(id), uint(width))
	}
	return w.bytes(), width
}

// rawRunBytes estimates what a run's rows cost as raw arrays: a chunk's
// RawBytes, the numerator of the compression-ratio gauge.
func rawRunBytes(ts []int64, cols []col) int64 {
	n := int64(len(ts)) * 8
	for i := range cols {
		c := &cols[i]
		n += int64(len(c.Floats))*8 + int64(len(c.Ints))*8 +
			int64(len(c.StrIDs))*4 + int64(len(c.Vals))*valueBytes +
			int64(len(c.Present))*8
	}
	return n
}

// compressColumns encodes a raw run into a chunk in one go, column by
// column.
func compressColumns(ts []int64, cols []col) *compRun {
	n := len(ts)
	c := &compRun{
		N:        n,
		MinTS:    ts[0],
		MaxTS:    ts[n-1],
		Ts:       encodeTimestamps(ts),
		RawBytes: rawRunBytes(ts, cols),
	}
	c.Cols = make([]compCol, len(cols))
	for i := range cols {
		src := &cols[i]
		dst := &c.Cols[i]
		dst.Name = src.Name
		dst.Kind = src.Kind
		dst.Mixed = src.Mixed
		if src.Present != nil {
			dst.Present = append([]uint64(nil), src.Present[:bitWords(n)]...)
		}
		switch src.Arm() {
		case durable.ArmVals:
			dst.Vals = append([]lineproto.Value(nil), src.Vals[:n]...)
		case durable.ArmFloats:
			dst.Data = encodeFloats(src.Floats[:n])
		case durable.ArmStrIDs:
			dst.Data, dst.Width = encodeStrIDs(src.StrIDs[:n])
		default:
			dst.Data = encodeInts(src.Ints[:n])
		}
	}
	return c
}

// sliceRun returns a fresh run holding rows [lo, hi): the reference of a
// retention cut (colRun.since), whose kept rows it copies out.
func (r *colRun) sliceRun(lo, hi int) *colRun {
	out := &colRun{ts: append([]int64(nil), r.ts[lo:hi]...)}
	out.cols = make([]col, 0, len(r.cols))
	for i := range r.cols {
		out.cols = append(out.cols, r.cols[i].sliceRows(lo, hi))
	}
	return out
}

// sliceRows returns a fresh column holding rows [lo, hi), dense when every
// one of them carries a value.
func (c *col) sliceRows(lo, hi int) col {
	k := hi - lo
	out := col{n: k}
	out.Name = c.Name
	out.Values = c.CloneRange(lo, hi)
	if c.Present != nil {
		np := make([]uint64, bitWords(k))
		all := true
		for i := 0; i < k; i++ {
			if bitGet(c.Present, lo+i) {
				bitSet(np, i)
			} else {
				all = false
			}
		}
		if !all {
			out.Present = np
		}
	}
	return out
}
