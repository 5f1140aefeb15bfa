package tsdb

// Gorilla-style chunk codecs (DESIGN.md §13).
//
// A run lives in one of two states: each series' newest run, the head
// (head.go), is an append-only stream per column that these codecs write
// as the rows arrive; every older run is a chunk, the head's bytes cut out
// at sealRows rows, and the cut (tsdb.go, series.compact) merges adjacent
// chunks into larger ones, up to maxChunkRows rows:
//
//   - timestamps: delta-of-delta, bucketed bit codes (Facebook Gorilla §4.1
//     as adopted by Prometheus/InfluxDB). Fixed-interval samples — the
//     monitoring hot case — cost 1 bit/point;
//   - float columns: XOR with leading/trailing-zero windows (Gorilla §4.2),
//     bit-exact for every float64 including NaN payloads;
//   - int and bool columns: zigzag delta varints, byte-aligned;
//   - string columns: interned ids bit-packed at the width of the largest
//     id in the chunk;
//   - presence bitmaps stay raw words (already 1 bit/row) so query views
//     can alias them without a decode; mixed-kind columns stay raw too
//     (they are rare and carry no exploitable structure).
//
// Every encoder is a state carried from row to row (tsEnc, colEnc), which
// a head keeps between blocks, so head.append is the one chunk encoder and
// writes the bytes the one-shot encoders of the tests (oneshot_test.go)
// write over the same rows. Everything is byte-exact: decoding reproduces
// the rows bit for bit. A chunk is never written to: writes land on the
// head, and a merge or a retention cut decodes the chunks it takes into a
// pooled arena (decodeChunk) and encodes what it keeps onto a fresh head
// (encodeRun).
//
// Arithmetic note: deltas and delta-of-deltas are computed in uint64 with
// wraparound and zigzag-coded, so the codec is total over all int64
// timestamps/values — no overflow special cases.

import (
	"math"
	mbits "math/bits"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/tsdb/durable"
)

// compRun and compCol are the resident compressed form of a run and of one
// of its columns: the durable package's chunk structs, which checkpoints
// write and recovery adopts as they are (persist.go).
type (
	compRun = durable.CompRun
	compCol = durable.CompCol
)

// compColByName returns the index of the named column in c, or -1.
func compColByName(c *compRun, name string) int {
	for i := range c.Cols {
		if c.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// compSizeBytes estimates the resident footprint of the compressed run.
func compSizeBytes(c *compRun) int64 {
	n := int64(len(c.Ts))
	for i := range c.Cols {
		cc := &c.Cols[i]
		n += int64(len(cc.Data)) + int64(len(cc.Present))*8 + int64(len(cc.Vals))*valueBytes
	}
	return n
}

// valueBytes approximates sizeof(lineproto.Value) for footprint gauges.
const valueBytes = 40

// armBytes is what one row costs in each arm of a raw column.
var armBytes = [...]int64{durable.ArmFloats: 8, durable.ArmInts: 8, durable.ArmStrIDs: 4, durable.ArmVals: valueBytes}

// --- timestamp chunk: delta-of-delta -----------------------------------

// Bit codes for one zigzagged delta-of-delta:
//
//	0                  → dod == 0 (the fixed-interval steady state)
//	10  + 16 bits      → |dod| fits the ±ms jitter of real scrape loops
//	110 + 32 bits      → second-scale gaps
//	111 + 64 bits      → anything (first delta of a run lands here once)
func appendDodBits(w *bitWriter, z uint64) {
	switch {
	case z == 0:
		w.writeBit(false)
	case z < 1<<16:
		w.writeBits(0b10<<16|z, 18)
	case z < 1<<32:
		w.writeBits(0b110<<32|z, 35)
	default:
		w.writeBits(0b111, 3)
		w.writeBits(z, 64)
	}
}

func zigzag(v uint64) uint64   { return (v << 1) ^ uint64(int64(v)>>63) }
func unzigzag(z uint64) uint64 { return (z >> 1) ^ -(z & 1) }

// tsEnc is the timestamp codec's state after the rows it encoded: the
// first timestamp is stored raw, every later one as the zigzagged
// delta-of-delta against the previous delta (0 before the second row).
type tsEnc struct {
	n     int
	prev  int64
	delta uint64
}

func (e *tsEnc) put(w *bitWriter, t int64) {
	if e.n++; e.n == 1 {
		w.writeBits(uint64(t), 64)
	} else {
		delta := uint64(t) - uint64(e.prev)
		appendDodBits(w, zigzag(delta-e.delta))
		e.delta = delta
	}
	e.prev = t
}

// decodeTimestamps decompresses a timestamp chunk into dst (len n) and
// returns how many it decoded: it stops after the first timestamp past end,
// as a window ending there reads nothing beyond it in a sorted chunk.
func decodeTimestamps(data []byte, dst []int64, end int64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	r := bitReader{b: data}
	first := r.readBits(64)
	if r.short {
		return 0, errShortChunk
	}
	dst[0] = int64(first)
	prev, prevDelta := first, uint64(0)
	for i := 1; i < len(dst); i++ {
		if dst[i-1] > end {
			return i, nil
		}
		// The bucket codes of appendDodBits.
		z := uint64(0)
		if r.readBit() {
			switch {
			case !r.readBit():
				z = r.readBits(16)
			case !r.readBit():
				z = r.readBits(32)
			default:
				z = r.readBits(64)
			}
		}
		if r.short {
			return 0, errShortChunk
		}
		prevDelta += unzigzag(z)
		prev += prevDelta
		dst[i] = int64(prev)
	}
	return len(dst), nil
}

// --- float chunk: XOR with leading/trailing-zero windows ----------------

// colEnc is a value column's codec state after the rows it encoded: the
// previous value (a float's bits, or an int) and the float codec's open
// window.
type colEnc struct {
	prev      uint64
	lead, sig uint8 // sig == 0 marks "no window yet"
}

// putFloat encodes one float bit-exactly (Gorilla §4.2). The first value
// is raw; each later value XORs against its predecessor: '0' repeats the
// previous value, '10' reuses the previous significant-bit window, '11'
// opens a new window (5 bits leading zeros, 6 bits length-1, then the
// significant bits).
func (e *colEnc) putFloat(w *bitWriter, v float64, first bool) {
	cur := math.Float64bits(v)
	if first {
		w.writeBits(cur, 64)
		e.prev = cur
		return
	}
	x := cur ^ e.prev
	e.prev = cur
	if x == 0 {
		w.writeBit(false)
		return
	}
	l := uint(mbits.LeadingZeros64(x))
	if l > 31 {
		l = 31 // 5-bit field; longer runs just store a few extra bits
	}
	t := uint(mbits.TrailingZeros64(x))
	s := 64 - l - t
	lead, sig := uint(e.lead), uint(e.sig)
	if sig != 0 && l >= lead && 64-lead-sig <= t {
		// The previous window still covers every significant bit: '10'.
		if sig <= 62 {
			w.writeBits(0b10<<sig|x>>(64-lead-sig), sig+2)
		} else {
			w.writeBits(0b10, 2)
			w.writeBits(x>>(64-lead-sig), sig)
		}
		return
	}
	w.writeBits(0b11<<11|uint64(l)<<6|uint64(s-1), 13)
	w.writeBits(x>>t, s)
	e.lead, e.sig = uint8(l), uint8(s)
}

// putInt encodes one int/bool as a byte-aligned zigzag delta varint:
// counters move by small steps, so most deltas are 1-2 bytes.
func (e *colEnc) putInt(w *bitWriter, v int64) {
	w.b = appendUvarint64(w.b, zigzag(uint64(v)-e.prev))
	e.prev = uint64(v)
}

// decodeFloats decompresses a float chunk into dst (len n).
func decodeFloats(data []byte, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	r := bitReader{b: data}
	prev := r.readBits(64)
	if r.short {
		return errShortChunk
	}
	dst[0] = math.Float64frombits(prev)
	lead, sig := uint(0), uint(0)
	for i := 1; i < len(dst); i++ {
		if r.readBit() {
			if r.readBit() {
				hdr := r.readBits(11)
				lead = uint(hdr >> 6)
				sig = uint(hdr&63) + 1
			} else if sig == 0 {
				return errShortChunk // window reuse before any window opened
			}
			prev ^= r.readBits(sig) << (64 - lead - sig)
		}
		if r.short {
			return errShortChunk
		}
		dst[i] = math.Float64frombits(prev)
	}
	return nil
}

// --- int chunk: zigzag delta varints ------------------------------------

// decodeInts decompresses an int chunk into dst (len n).
func decodeInts(data []byte, dst []int64) error {
	prev := uint64(0)
	for i := range dst {
		z, m, err := readUvarint64(data)
		if err != nil {
			return err
		}
		data = data[m:]
		prev += unzigzag(z)
		dst[i] = int64(prev)
	}
	return nil
}

// appendUvarint64/readUvarint64 are binary.AppendUvarint/Uvarint with an
// explicit error instead of panics or silent truncation on hostile input.
func appendUvarint64(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func readUvarint64(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errShortChunk
}

// --- string-id chunk: bit-width packing ---------------------------------

// decodeStrIDs unpacks a string-id chunk into dst (len n). The ids are
// packed at the bit width of the largest id in the chunk (headCol.width,
// which widen grows): event columns usually intern a handful of payloads,
// so ids cost 1-4 bits instead of 4 bytes. Every id must be below maxID
// (the snapshotted intern-table length), so a corrupt chunk can never
// index past the table.
func decodeStrIDs(data []byte, width uint8, maxID uint32, dst []uint32) error {
	if width == 0 {
		for i := range dst {
			dst[i] = 0
		}
		if maxID == 0 && len(dst) > 0 {
			return errShortChunk
		}
		return nil
	}
	if width > 32 {
		return errShortChunk
	}
	r := bitReader{b: data}
	for i := range dst {
		v := r.readBits(uint(width))
		if r.short || uint32(v) >= maxID {
			return errShortChunk
		}
		dst[i] = uint32(v)
	}
	return nil
}

// --- run encoding and decoding ------------------------------------------

// encodeRun encodes a sorted run — a merge of chunks, or what a retention
// cut keeps of one — into a chunk: a fresh head takes its rows in one
// block and is cut, so every chunk comes out of head.append. scratch is
// the stream the head encodes through.
func encodeRun(ts []int64, cols []col, strs []string, scratch *bitWriter) *compRun {
	var h head
	h.append(ts, cols, strs, scratch, nil)
	return h.chunk()
}

// decodeCol decodes the first n rows of a chunk column into arrays from
// the arena a: the one place that turns chunk bytes back into typed
// arrays. The mixed values a chunk keeps raw are aliased, as a chunk is
// immutable. strsLen bounds decoded string ids.
func decodeCol(cc *compCol, n, strsLen int, a *decodeArena) (durable.Values, error) {
	v := durable.Values{Kind: cc.Kind, Mixed: cc.Mixed}
	var err error
	switch v.Arm() {
	case durable.ArmVals:
		v.Vals = cc.Vals
	case durable.ArmFloats:
		v.Floats = a.takeF64(n)
		err = decodeFloats(cc.Data, v.Floats)
	case durable.ArmStrIDs:
		v.StrIDs = a.takeU32(n)
		err = decodeStrIDs(cc.Data, cc.Width, uint32(strsLen), v.StrIDs)
	default:
		v.Ints = a.takeI64(n)
		err = decodeInts(cc.Data, v.Ints)
	}
	return v, err
}

// decodeChunk decodes a chunk into a raw run whose arrays come from the
// arena a, so they last until it is reset; presence bitmaps and mixed
// values are the chunk's own. It is the form merges, retention cuts and
// the head's rare paths change and encode again before they give a back.
func decodeChunk(c *compRun, strsLen int, a *decodeArena) (*colRun, error) {
	out := &colRun{ts: a.takeI64(c.N), cols: make([]col, len(c.Cols))}
	if _, err := decodeTimestamps(c.Ts, out.ts, math.MaxInt64); err != nil {
		return nil, err
	}
	for i := range c.Cols {
		cc := &c.Cols[i]
		v, err := decodeCol(cc, c.N, strsLen, a)
		if err != nil {
			return nil, err
		}
		out.cols[i] = col{Name: cc.Name, Present: cc.Present, Values: v, n: c.N}
	}
	return out, nil
}

// --- query-time materialization ------------------------------------------
//
// Phase 1 of Select snapshots a chunk as its immutable compRun pointer and
// a head as its headSnap (after a min/max time-bound cut); phase 2 decodes
// either into a pooled scratch arena right before the vectorized foldView
// sweeps run over it. The arena recycles its backing arrays across
// queries and writes (sync.Pool) — the merges a cut makes, retention cuts
// and the head's rare paths decode into it too — so steady traffic decodes
// into warm memory instead of allocating per run.

// decodeArena hands out typed scratch slices. Slices taken from it stay
// valid until reset: exhausting a block allocates a fresh one and strands
// the old block with its outstanding slices (freed by GC once unused).
type decodeArena struct {
	i64                                     []int64
	f64                                     []float64
	u32                                     []uint32
	u8                                      []byte
	views                                   []colView
	i64off, f64off, u32off, u8off, viewsOff int
}

const arenaBlock = 16 * 1024

func arenaGrow(need int) int {
	if need < arenaBlock {
		return arenaBlock
	}
	return need
}

func (a *decodeArena) takeI64(n int) []int64 {
	if a.i64off+n > len(a.i64) {
		a.i64 = make([]int64, arenaGrow(n))
		a.i64off = 0
	}
	s := a.i64[a.i64off : a.i64off+n : a.i64off+n]
	a.i64off += n
	return s
}

func (a *decodeArena) takeF64(n int) []float64 {
	if a.f64off+n > len(a.f64) {
		a.f64 = make([]float64, arenaGrow(n))
		a.f64off = 0
	}
	s := a.f64[a.f64off : a.f64off+n : a.f64off+n]
	a.f64off += n
	return s
}

func (a *decodeArena) takeU32(n int) []uint32 {
	if a.u32off+n > len(a.u32) {
		a.u32 = make([]uint32, arenaGrow(n))
		a.u32off = 0
	}
	s := a.u32[a.u32off : a.u32off+n : a.u32off+n]
	a.u32off += n
	return s
}

// takeViews hands out n zeroed column views.
func (a *decodeArena) takeViews(n int) []colView {
	if a.viewsOff+n > len(a.views) {
		a.views = make([]colView, max(n, 256))
		a.viewsOff = 0
	}
	s := a.views[a.viewsOff : a.viewsOff+n : a.viewsOff+n]
	clear(s)
	a.viewsOff += n
	return s
}

// finished returns a stream a head snapshot captured, finished: its
// complete bytes as they are, or copied out with the partial byte.
func (a *decodeArena) finished(w *bitWriter) []byte {
	if w.n == 0 {
		return w.b
	}
	n := len(w.b) + 1
	if a.u8off+n > len(a.u8) {
		a.u8 = make([]byte, arenaGrow(n))
		a.u8off = 0
	}
	s := a.u8[a.u8off : a.u8off+n : a.u8off+n]
	copy(s, w.b)
	s[n-1] = w.cur
	a.u8off += n
	return s
}

func (a *decodeArena) reset() {
	a.i64off, a.f64off, a.u32off, a.u8off, a.viewsOff = 0, 0, 0, 0, 0
}

var arenaPool = sync.Pool{New: func() any { return &decodeArena{} }}

// pooledArena takes a reset arena from arenaPool. Put it back once nothing
// decoded into it is in use.
func pooledArena() *decodeArena {
	a := arenaPool.Get().(*decodeArena)
	a.reset()
	return a
}

// noteDecodeError counts every chunk that failed to decode, served as an
// empty run rather than failing every query forever, and logs the store's
// first: a decode failure means bytes that passed the checkpoint CRC still
// failed the codec, which is outside the storage fault model.
func (mt *Metrics) noteDecodeError(err error) {
	mt.ChunkDecodeErrors.Inc()
	mt.decodeErrOnce.Do(func() {
		obs.Errorf("tsdb: compressed chunk decode failed (serving affected runs as empty): %v", err)
	})
}

// materializeSnap decodes a chunk or head snapshot into scratch-backed
// column views, applying the same time-range cut and raw-Limit clamp
// phase 1 can only bound-check. On return rs is an ordinary runSnap: the
// foldView sweeps, raw emission and window bucketing never know the rows
// came out of a chunk. Only the prefix up to the window's last row is
// decoded.
func materializeSnap(mt *Metrics, rs *runSnap, q Query, cols []AggCol, strsLen int, a *decodeArena) {
	c, h := rs.comp, rs.head
	rs.comp, rs.head = nil, nil
	rs.cols = a.takeViews(len(cols))
	startNS, endNS := rangeNS(q.Start, q.End)
	var n int
	var tsData []byte
	if h != nil {
		n, tsData = h.n, a.finished(&h.ts)
	} else {
		n, tsData = c.N, c.Ts
	}
	ts := a.takeI64(n)
	n, err := decodeTimestamps(tsData, ts, endNS)
	if err != nil {
		mt.noteDecodeError(err)
		return
	}
	ts = ts[:n]
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= startNS })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] > endNS })
	if lo >= hi {
		return
	}
	if n := q.rawLimit(); n > 0 && hi-lo > n {
		hi = lo + n // the raw-Limit pushdown, post-decode
	}
	rs.ts = ts[lo:hi]
	for ci := range cols {
		var cc *compCol
		if h != nil {
			hc := &h.cols[ci]
			if !hc.ok {
				continue
			}
			hc.cc.Data = a.finished(&hc.w)
			cc = &hc.cc
		} else if cci := compColByName(c, cols[ci].Field); cci >= 0 {
			cc = &c.Cols[cci]
		} else {
			continue
		}
		vals, err := decodeCol(cc, hi, strsLen, a)
		if err != nil {
			mt.noteDecodeError(err)
			*rs = runSnap{cols: a.takeViews(len(cols))}
			return
		}
		rs.cols[ci] = colView{ok: true, off: lo, present: cc.Present, Values: vals.Slice(lo, hi)}
	}
}

// materializeGroup decodes every chunk and head snapshot of a group and
// drops runs the precise time cut left empty (phase 1 can only bound-check
// a run's min/max timestamp, so a run may turn out to hold no row in
// range; byte-identity demands it not surface). Returns false when the
// whole group vanished. prof, when non-nil, counts the chunks and the
// heads decoded, one each however many columns the query reads.
func materializeGroup(mt *Metrics, g *selectGroup, q Query, cols []AggCol, strsLen int, a *decodeArena, prof *selectProf) bool {
	kept := g.runs[:0]
	for ri := range g.runs {
		rs := &g.runs[ri]
		if prof != nil {
			switch {
			case rs.comp != nil:
				prof.ChunksDecoded++
			case rs.head != nil:
				prof.HeadsDecoded++
			}
		}
		materializeSnap(mt, rs, q, cols, strsLen, a)
		if len(rs.ts) > 0 {
			kept = append(kept, *rs)
		}
	}
	g.runs = kept
	return len(g.runs) > 0
}
