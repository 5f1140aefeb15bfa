package tsdb

// Bit-granular stream reader/writer backing the chunk codecs (compress.go,
// DESIGN.md §13). Bits are packed MSB-first into bytes — the layout
// Gorilla, Prometheus and InfluxDB use — so a chunk is a plain []byte that
// the durable snapshot codec can frame and CRC without knowing anything
// about its contents.
//
// The writer is append-only: it holds the partial last byte by value and
// appends a byte to its slice only once all eight bits are written, so a
// reader holding a header of the slice (a head snapshot, select.go) sees
// bytes that are never rewritten. The reader is fully bounds-checked: a
// read past the end marks it short, and the decoders return errShortChunk
// instead of panicking, because query-time decode may face bytes that
// came off a disk (the checkpoint CRC makes corruption here effectively
// unreachable, but the fuzz targets hold the decoder to "never panics"
// regardless).

import "errors"

var errShortChunk = errors.New("tsdb: compressed chunk truncated")

// bitWriter appends bits MSB-first: b holds the complete bytes, cur the
// partial last one, of which the top n bits are written.
type bitWriter struct {
	b   []byte
	cur byte
	n   uint8
}

// writeBit appends a single bit.
func (w *bitWriter) writeBit(bit bool) {
	if bit {
		w.cur |= 0x80 >> w.n
	}
	if w.n++; w.n == 8 {
		w.b = append(w.b, w.cur)
		w.cur, w.n = 0, 0
	}
}

// writeBits appends the low n bits of v (0 <= n <= 64), MSB-first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 8 - uint(w.n)
	if n < free {
		w.cur |= byte(v << (free - n))
		w.n += uint8(n)
		return
	}
	n -= free
	w.b = append(w.b, w.cur|byte(v>>n))
	for n >= 8 {
		n -= 8
		w.b = append(w.b, byte(v>>n))
	}
	w.cur, w.n = byte(v<<(8-n)), uint8(n)
}

// size is the length of the finished stream.
func (w *bitWriter) size() int {
	if w.n > 0 {
		return len(w.b) + 1
	}
	return len(w.b)
}

// appendTo appends the finished stream — the partial byte's unwritten bits
// zero — to dst.
func (w *bitWriter) appendTo(dst []byte) []byte {
	dst = append(dst, w.b...)
	if w.n > 0 {
		dst = append(dst, w.cur)
	}
	return dst
}

// view returns w as a reader captures it: the complete bytes, clipped so
// nothing the writer appends later is in reach, and the partial byte.
func (w *bitWriter) view() bitWriter {
	return bitWriter{b: w.b[:len(w.b):len(w.b)], cur: w.cur, n: w.n}
}

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// window: acc holds the next nacc unread bits, MSB-aligned, and b the
// bytes not loaded yet. A read past the end returns zero bits and marks
// the reader short, which the decoders check once per row: the common
// reads stay small enough to inline.
type bitReader struct {
	b     []byte
	acc   uint64
	nacc  uint
	short bool
}

// fill loads whole bytes into the window while they fit.
func (r *bitReader) fill() {
	for r.nacc <= 56 && len(r.b) > 0 {
		r.acc |= uint64(r.b[0]) << (56 - r.nacc)
		r.b = r.b[1:]
		r.nacc += 8
	}
}

// readBit consumes a single bit.
func (r *bitReader) readBit() bool {
	if r.nacc == 0 {
		if r.fill(); r.nacc == 0 {
			r.short = true
			return false
		}
	}
	bit := r.acc>>63 == 1
	r.acc <<= 1
	r.nacc--
	return bit
}

// readBits consumes n bits (1 <= n <= 64) into the low bits of the
// result.
func (r *bitReader) readBits(n uint) uint64 {
	if n > r.nacc || n >= 64 {
		return r.readBitsSlow(n)
	}
	v := r.acc >> ((64 - n) & 63)
	r.acc <<= n & 63
	r.nacc -= n
	return v
}

// readBitsSlow is readBits past the window: it loads more bytes, and
// reads a request wider than a loaded window in two parts.
func (r *bitReader) readBitsSlow(n uint) uint64 {
	if n > 56 {
		// The window may hold as few as 57 bits after a fill.
		hi := r.readBits(n - 32)
		return hi<<32 | r.readBits(32)
	}
	if r.fill(); n > r.nacc {
		r.short = true
		return 0
	}
	return r.readBits(n)
}
