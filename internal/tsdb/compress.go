package tsdb

// Gorilla-style chunk compression: the third run state (DESIGN.md §13).
//
// Runs progress building → sealed → compressed. A building run is the
// shard's transient runBuilder; a sealed run is a published colRun with
// raw typed columns (column.go); once a run has sat untouched for the
// configured idle window the background compactor (tsdb.go,
// SetCompressAfter) re-encodes it into a compRun — per-column compressed
// chunks — and drops the raw arrays:
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
// Everything is byte-exact: decompression reproduces the raw columns
// bit for bit, so aggregation answers are byte-identical to the sealed
// state. A compressed run is immutable; the write path handles the rare
// mutations by decompress-merge-recompress (exact-timestamp rewrites) or
// by opening a fresh run next to it (appends), and compaction
// decompresses when run sizes demand a merge (tsdb.go).
//
// Arithmetic note: deltas and delta-of-deltas are computed in uint64 with
// wraparound and zigzag-coded, so the codec is total over all int64
// timestamps/values — no overflow special cases.

import (
	"math"
	mbits "math/bits"
	"sort"
	"sync"

	"repro/internal/lineproto"
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

// rawRunBytes estimates the resident footprint of a sealed run's arrays.
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
		w.writeBit(true)
		w.writeBit(false)
		w.writeBits(z, 16)
	case z < 1<<32:
		w.writeBit(true)
		w.writeBit(true)
		w.writeBit(false)
		w.writeBits(z, 32)
	default:
		w.writeBit(true)
		w.writeBit(true)
		w.writeBit(true)
		w.writeBits(z, 64)
	}
}

func zigzag(v uint64) uint64   { return (v << 1) ^ uint64(int64(v)>>63) }
func unzigzag(z uint64) uint64 { return (z >> 1) ^ -(z & 1) }

// encodeTimestamps compresses a sorted timestamp column. The first
// timestamp is stored raw; every later one as the zigzagged
// delta-of-delta against an initial delta of 0.
func encodeTimestamps(ts []int64) []byte {
	var w bitWriter
	w.writeBits(uint64(ts[0]), 64)
	prevDelta := uint64(0)
	for i := 1; i < len(ts); i++ {
		delta := uint64(ts[i]) - uint64(ts[i-1])
		appendDodBits(&w, zigzag(delta-prevDelta))
		prevDelta = delta
	}
	return w.bytes()
}

// decodeTimestamps decompresses a timestamp chunk into dst (len n).
func decodeTimestamps(data []byte, dst []int64) error {
	if len(dst) == 0 {
		return nil
	}
	r := bitReader{b: data}
	first, err := r.readBits(64)
	if err != nil {
		return err
	}
	dst[0] = int64(first)
	prev, prevDelta := first, uint64(0)
	for i := 1; i < len(dst); i++ {
		bits, err := readDodBits(&r)
		if err != nil {
			return err
		}
		prevDelta += unzigzag(bits)
		prev += prevDelta
		dst[i] = int64(prev)
	}
	return nil
}

func readDodBits(r *bitReader) (uint64, error) {
	b, err := r.readBit()
	if err != nil || !b {
		return 0, err
	}
	if b, err = r.readBit(); err != nil {
		return 0, err
	}
	if !b {
		return r.readBits(16)
	}
	if b, err = r.readBit(); err != nil {
		return 0, err
	}
	if !b {
		return r.readBits(32)
	}
	return r.readBits(64)
}

// --- float chunk: XOR with leading/trailing-zero windows ----------------

// encodeFloats compresses a float column bit-exactly (Gorilla §4.2). The
// first value is raw; each later value XORs against its predecessor:
// '0' repeats the previous value, '10' reuses the previous significant-bit
// window, '11' opens a new window (5 bits leading zeros, 6 bits length-1,
// then the significant bits).
func encodeFloats(vals []float64) []byte {
	var w bitWriter
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	lead, sig := uint(0), uint(0) // sig == 0 marks "no window yet"
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBit(false)
			continue
		}
		w.writeBit(true)
		l := uint(mbits.LeadingZeros64(x))
		if l > 31 {
			l = 31 // 5-bit field; longer runs just store a few extra bits
		}
		t := uint(mbits.TrailingZeros64(x))
		s := 64 - l - t
		if sig != 0 && l >= lead && 64-lead-sig <= t {
			// The previous window still covers every significant bit.
			w.writeBit(false)
			w.writeBits(x>>(64-lead-sig), sig)
			continue
		}
		w.writeBit(true)
		w.writeBits(uint64(l), 5)
		w.writeBits(uint64(s-1), 6)
		w.writeBits(x>>t, s)
		lead, sig = l, s
	}
	return w.bytes()
}

// decodeFloats decompresses a float chunk into dst (len n).
func decodeFloats(data []byte, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	r := bitReader{b: data}
	prev, err := r.readBits(64)
	if err != nil {
		return err
	}
	dst[0] = math.Float64frombits(prev)
	lead, sig := uint(0), uint(0)
	for i := 1; i < len(dst); i++ {
		changed, err := r.readBit()
		if err != nil {
			return err
		}
		if !changed {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		newWin, err := r.readBit()
		if err != nil {
			return err
		}
		if newWin {
			hdr, err := r.readBits(11)
			if err != nil {
				return err
			}
			lead = uint(hdr >> 6)
			sig = uint(hdr&63) + 1
		} else if sig == 0 {
			return errShortChunk // window reuse before any window opened
		}
		bits, err := r.readBits(sig)
		if err != nil {
			return err
		}
		prev ^= bits << (64 - lead - sig)
		dst[i] = math.Float64frombits(prev)
	}
	return nil
}

// --- int chunk: zigzag delta varints ------------------------------------

// encodeInts compresses an int/bool column as byte-aligned zigzag delta
// varints: counters move by small steps, so most deltas are 1-2 bytes.
func encodeInts(vals []int64) []byte {
	out := make([]byte, 0, len(vals)+8)
	prev := uint64(0)
	for _, v := range vals {
		out = appendUvarint64(out, zigzag(uint64(v)-prev))
		prev = uint64(v)
	}
	return out
}

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

// encodeStrIDs packs interned string ids at the bit width of the largest
// id in the chunk. Event columns usually intern a handful of payloads, so
// ids cost 1-4 bits instead of 4 bytes.
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
	var w bitWriter
	for _, id := range ids {
		w.writeBits(uint64(id), uint(width))
	}
	return w.bytes(), width
}

// decodeStrIDs unpacks a string-id chunk into dst (len n). Every id must
// be below maxID (the snapshotted intern-table length), so a corrupt
// chunk can never index past the table.
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
		v, err := r.readBits(uint(width))
		if err != nil {
			return err
		}
		if uint32(v) >= maxID {
			return errShortChunk
		}
		dst[i] = uint32(v)
	}
	return nil
}

// --- run compression -----------------------------------------------------

// compressColumns encodes a sealed run's captured column headers into a
// compRun. The inputs are immutable snapshots (the same guarantee Select's
// phase 1 relies on), so callers may encode outside the shard lock.
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

// compressRun encodes a published sealed run. Caller must hold the shard
// lock (read mode suffices: it only reads the immutable arrays).
func compressRun(r *colRun) *compRun { return compressColumns(r.ts, r.cols) }

// decodeCol decodes one column of an n-row chunk: the one place that turns
// chunk bytes back into typed arrays. The arrays come from a — a nil arena
// allocates them fresh, and then the mixed values a chunk keeps raw are
// cloned as well, so the result shares nothing with the chunk; with an
// arena they are aliased (a chunk is immutable). strsLen bounds decoded
// string ids.
func decodeCol(cc *compCol, n, strsLen int, a *decodeArena) (durable.Values, error) {
	v := durable.Values{Kind: cc.Kind, Mixed: cc.Mixed}
	var err error
	switch v.Arm() {
	case durable.ArmVals:
		v.Vals = cc.Vals
		if a == nil {
			v.Vals = append([]lineproto.Value(nil), cc.Vals...)
		}
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

// decompress rebuilds the full sealed form of a compressed run into freshly
// allocated arrays.
func decompress(c *compRun, strsLen int) (*colRun, error) {
	out := &colRun{ts: make([]int64, c.N)}
	if err := decodeTimestamps(c.Ts, out.ts); err != nil {
		return nil, err
	}
	out.cols = make([]col, len(c.Cols))
	for i := range c.Cols {
		src := &c.Cols[i]
		dst := &out.cols[i]
		dst.Name = src.Name
		dst.n = c.N
		if src.Present != nil {
			dst.Present = append([]uint64(nil), src.Present...)
		}
		var err error
		if dst.Values, err = decodeCol(src, c.N, strsLen, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- query-time materialization ------------------------------------------
//
// Phase 1 of Select snapshots a compressed run as its immutable compRun
// pointer (after a min/max time-bound cut); phase 2 decodes the chunk
// into a per-worker scratch arena right before the vectorized foldView
// sweeps run over it. The arena recycles its backing arrays across
// queries (sync.Pool), so steady dashboard traffic decodes into warm
// memory instead of allocating per run.

// decodeArena hands out typed scratch slices. Slices taken from it stay
// valid until reset: exhausting a block allocates a fresh one and strands
// the old block with its outstanding slices (freed by GC after the query).
// A nil arena allocates every slice on its own (decompress).
type decodeArena struct {
	i64                    []int64
	f64                    []float64
	u32                    []uint32
	i64off, f64off, u32off int
}

const arenaBlock = 16 * 1024

func arenaGrow(need int) int {
	if need < arenaBlock {
		return arenaBlock
	}
	return need
}

func (a *decodeArena) takeI64(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	if a.i64off+n > len(a.i64) {
		a.i64 = make([]int64, arenaGrow(n))
		a.i64off = 0
	}
	s := a.i64[a.i64off : a.i64off+n : a.i64off+n]
	a.i64off += n
	return s
}

func (a *decodeArena) takeF64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.f64off+n > len(a.f64) {
		a.f64 = make([]float64, arenaGrow(n))
		a.f64off = 0
	}
	s := a.f64[a.f64off : a.f64off+n : a.f64off+n]
	a.f64off += n
	return s
}

func (a *decodeArena) takeU32(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	if a.u32off+n > len(a.u32) {
		a.u32 = make([]uint32, arenaGrow(n))
		a.u32off = 0
	}
	s := a.u32[a.u32off : a.u32off+n : a.u32off+n]
	a.u32off += n
	return s
}

func (a *decodeArena) reset() { a.i64off, a.f64off, a.u32off = 0, 0, 0 }

var arenaPool = sync.Pool{New: func() any { return &decodeArena{} }}

// decodeErrOnce rate-limits the corrupt-chunk log: a decode failure at
// query time means bytes that passed the checkpoint CRC still failed the
// codec, which is outside the storage fault model — log it once, serve
// the run as empty rather than failing every query forever.
var decodeErrOnce sync.Once

func noteDecodeError(err error) {
	decodeErrOnce.Do(func() {
		obs.Errorf("tsdb: compressed chunk decode failed (serving affected runs as empty): %v", err)
	})
}

// materializeSnap decodes a compressed run snapshot into scratch-backed
// column views, applying the same time-range cut and raw-Limit clamp
// phase 1 applies to sealed runs. On return rs is an ordinary runSnap:
// the foldView sweeps, raw emission and window bucketing never know the
// rows came out of a chunk.
func materializeSnap(rs *runSnap, q Query, cols []AggCol, strsLen int, a *decodeArena) {
	c := rs.comp
	rs.comp = nil
	rs.cols = make([]colView, len(cols))
	ts := a.takeI64(c.N)
	if err := decodeTimestamps(c.Ts, ts); err != nil {
		noteDecodeError(err)
		return
	}
	startNS, endNS := rangeNS(q.Start, q.End)
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
		cci := compColByName(c, cols[ci].Field)
		if cci < 0 {
			continue
		}
		cc := &c.Cols[cci]
		vals, err := decodeCol(cc, c.N, strsLen, a)
		if err != nil {
			noteDecodeError(err)
			*rs = runSnap{cols: make([]colView, len(cols))}
			return
		}
		rs.cols[ci] = colView{ok: true, off: lo, present: cc.Present, Values: vals.Slice(lo, hi)}
	}
}

// materializeGroup decodes every compressed run of a group and drops runs
// the precise time cut left empty (phase 1 can only bound-check a chunk's
// min/max timestamp, so a run may turn out to hold no row in range — a
// sealed run would never have been snapshotted, and byte-identity demands
// the same here). Returns false when the whole group vanished.
func materializeGroup(g *selectGroup, q Query, cols []AggCol, strsLen int, a *decodeArena) bool {
	kept := g.runs[:0]
	for ri := range g.runs {
		if g.runs[ri].comp != nil {
			materializeSnap(&g.runs[ri], q, cols, strsLen, a)
			if len(g.runs[ri].ts) == 0 {
				continue
			}
		}
		kept = append(kept, g.runs[ri])
	}
	g.runs = kept
	return len(g.runs) > 0
}
