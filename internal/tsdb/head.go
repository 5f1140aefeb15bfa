package tsdb

// The head (DESIGN.md §13): each series' newest run, the one writes land
// on, kept as the chunk it will become. Every column holds its rows
// encoded by the chunk codecs of compress.go, plus the state the encoder
// had after the last row — the last timestamp and delta, the last float's
// bits and its lead/sig window, the last int, the string-id width — so an
// in-order block encodes its own rows and nothing else. The bytes are those
// the one-shot encoders give over the same rows, however the rows arrived
// in blocks (FuzzHeadAppend). A cut at sealRows copies the streams out at
// their exact size as a chunk: no row stays raw, and the merges the cut
// makes (series.compact) only ever take chunks. append is the one chunk
// encoder: a merge or a retention cut encodes onto a fresh head (encodeRun).
//
// Readers share the streams without a copy (headSnap): a stream only
// grows, its complete bytes are never rewritten, and the partial last byte
// lives in the writer, where a snapshot takes it by value under the shard
// read lock. Presence bitmaps are copy-on-write, a mixed column's values
// only grow. What cannot append — an exact-timestamp upsert, a late block,
// a retention cut inside the head — decodes the head, changes the rows and
// encodes them into fresh streams; a kind change to mixed or a string id
// wider than the column's packing does the same to one column.

import (
	"fmt"
	"math"
	mbits "math/bits"
	"slices"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// head is a series' newest run in its encoded form. It is written only
// under the shard write lock; what a reader needs, snapshot captures under
// the read lock.
type head struct {
	n            int
	minTS, maxTS int64
	tsDelta      uint64 // the timestamp codec's last delta
	ts           bitWriter
	cols         []headCol
	undo         tsUndo
}

// tsUndo is the timestamp stream and its encoder as they were before the
// head's last row; colUndo is a column's. lateRow rewinds to them.
type tsUndo struct {
	prev   int64
	delta  uint64
	blen   int32
	cur, n uint8
}

type colUndo struct {
	prev              uint64
	blen              int32
	cur, n, lead, sig uint8
}

// headCol is one field's column of a head: the chunk column it will be cut
// into (chunkCol), its stream w standing for the chunk's Data, and the
// encoder state.
type headCol struct {
	name    string
	present []uint64 // nil = dense; copy-on-write
	// vals holds a mixed column's rows, append-only; nil until the column
	// is mixed, which is rare.
	vals  *[]lineproto.Value
	w     bitWriter
	enc   colEnc
	undo  colUndo
	n     int32 // rows covered (values and gaps); the head's once appended
	kind  lineproto.ValueKind
	mixed bool
	width uint8 // string-id packing
}

// mixedVals is a mixed column's rows, or nil.
func (hc *headCol) mixedVals() []lineproto.Value {
	if hc.vals == nil {
		return nil
	}
	return *hc.vals
}

func (hc *headCol) arm() durable.Arm { return durable.ArmOf(hc.kind, hc.mixed) }

func (h *head) colByName(name string) int {
	for i := range h.cols {
		if h.cols[i].name == name {
			return i
		}
	}
	return -1
}

// headAppend is one append's context: the measurement's intern table (or
// a snapshot of it), the scratch stream rows are encoded into, and — for a
// fresh head that grows by appends — the chunk it was last cut into, whose
// stream sizes presize its streams out of one allocation, spare.
type headAppend struct {
	strs  []string
	s     *bitWriter
	like  *compRun
	spare []byte
}

// presize is a stream's starting capacity after a cut: its size in the cut
// chunk scaled to sealRows rows, with a little slack.
func presize(size, rows int) int {
	size = (size*sealRows + rows - 1) / rows
	return size + size/8 + 2
}

// minStream is the least a fresh stream without a presize starts at: a new
// series' first rows, a few bytes each, then take a handful of doublings
// rather than one per row.
const minStream = 32

// take moves the bytes the scratch completed onto the stream w, and its
// partial byte with them. The one append sizes w's array: a fresh stream
// starts at its presize, carved from spare, or at what it needs but at
// least minStream; a full one doubles.
func (a *headAppend) take(w *bitWriter, name string) {
	s := a.s
	if need := len(w.b) + len(s.b); need > cap(w.b) {
		size, hinted := minStream, false
		if a.spare != nil {
			if name == "" {
				size, hinted = presize(len(a.like.Ts), a.like.N), true
			} else if i := compColByName(a.like, name); i >= 0 {
				size, hinted = presize(len(a.like.Cols[i].Data), a.like.N), true
			}
		}
		switch {
		case len(w.b) > 0:
			w.b = append(make([]byte, 0, max(need, 2*cap(w.b))), w.b...)
		case hinted && need <= size && size <= len(a.spare):
			w.b, a.spare = a.spare[:0:size], a.spare[size:]
		default:
			w.b = make([]byte, 0, max(need, size))
		}
	}
	w.b = append(w.b, s.b...)
	w.cur, w.n = s.cur, s.n
}

// prime readies the scratch to continue the stream w.
func (a *headAppend) prime(w *bitWriter) {
	a.s.b, a.s.cur, a.s.n = a.s.b[:0], w.cur, w.n
}

// append encodes a sorted block — rows of a builder, or of a decoded run —
// whose first timestamp is not before the head's last onto the head, with
// the semantics a raw run's append had: a field the head had not seen
// joins with the head's rows absent, a field the block lacks gets its rows
// absent, and a kind conflict promotes the column to mixed. strs is the
// measurement's intern table (or a snapshot of it), s scratch. like, when
// the head was just cut into it, presizes a head that will grow by
// appends.
func (h *head) append(ts []int64, cols []col, strs []string, s *bitWriter, like *compRun) {
	a := headAppend{strs: strs, s: s}
	oldN, newN := h.n, h.n+len(ts)
	if oldN == 0 {
		if like != nil && len(ts) < sealRows {
			size := presize(len(like.Ts), like.N)
			for i := range like.Cols {
				size += presize(len(like.Cols[i].Data), like.N)
			}
			a.like, a.spare = like, make([]byte, size)
		}
		if h.cols == nil {
			h.cols = make([]headCol, 0, len(cols))
		}
	}
	for i := range cols {
		src := &cols[i]
		ci := i // a block's columns usually come in the head's order
		if ci >= len(h.cols) || h.cols[ci].name != src.Name {
			ci = h.colByName(src.Name)
		}
		if ci < 0 {
			h.cols = append(h.cols, headCol{name: src.Name, kind: src.Kind})
			ci = len(h.cols) - 1
			if oldN > 0 {
				h.cols[ci].present = []uint64{} // every row so far absent
				a.put(&h.cols[ci], nil, oldN)
			}
		}
		hc := &h.cols[ci]
		if hc.present != nil || src.Present != nil {
			np := grownPresence(hc.present, oldN, newN)
			for r := 0; r < src.n; r++ {
				if src.has(r) {
					bitSet(np, oldN+r)
				}
			}
			hc.present = np
		}
		if !sameKind(hc.kind, hc.mixed, src.Kind, src.Mixed) {
			hc.toMixed(strs)
			src = boxed(src, strs)
		}
		a.put(hc, &src.Values, src.n)
	}
	for i := range h.cols {
		if hc := &h.cols[i]; int(hc.n) < newN {
			hc.present = grownPresence(hc.present, int(hc.n), newN)
			a.put(hc, nil, newN-int(hc.n))
		}
	}
	a.prime(&h.ts)
	enc := tsEnc{n: oldN, prev: h.maxTS, delta: h.tsDelta}
	for i, t := range ts {
		if i == len(ts)-1 {
			h.undo = tsUndo{prev: enc.prev, delta: enc.delta, blen: int32(len(h.ts.b) + len(s.b)), cur: s.cur, n: s.n}
		}
		enc.put(s, t)
	}
	a.take(&h.ts, "")
	if oldN == 0 {
		h.minTS = ts[0]
	}
	h.n, h.maxTS, h.tsDelta = newN, enc.prev, enc.delta
}

// put encodes k rows of v (in hc's arm) onto hc, or k absent rows' zero
// placeholders when v is nil. A string id wider than the column's packing
// re-packs the column first.
func (a *headAppend) put(hc *headCol, v *durable.Values, k int) {
	arm := hc.arm()
	if arm == durable.ArmVals {
		if v == nil {
			*hc.vals = append(*hc.vals, make([]lineproto.Value, k)...)
		} else {
			*hc.vals = append(*hc.vals, v.Vals[:k]...)
		}
		hc.n += int32(k)
		return
	}
	if arm == durable.ArmStrIDs && v != nil {
		maxID := uint32(0)
		for _, id := range v.StrIDs[:k] {
			maxID = max(maxID, id)
		}
		if width := uint8(mbits.Len32(maxID)); width > hc.width {
			hc.widen(width, a.strs)
		}
	}
	a.prime(&hc.w)
	s := a.s
	for i := 0; i < k; i++ {
		if i == k-1 {
			hc.undo = colUndo{prev: hc.enc.prev, blen: int32(len(hc.w.b) + len(s.b)), cur: s.cur, n: s.n,
				lead: hc.enc.lead, sig: hc.enc.sig}
		}
		switch arm {
		case durable.ArmFloats:
			f := 0.0
			if v != nil {
				f = v.Floats[i]
			}
			hc.enc.putFloat(s, f, int(hc.n)+i == 0)
		case durable.ArmStrIDs:
			id := uint32(0)
			if v != nil {
				id = v.StrIDs[i]
			}
			s.writeBits(uint64(id), uint(hc.width))
		default:
			x := int64(0)
			if v != nil {
				x = v.Ints[i]
			}
			hc.enc.putInt(s, x)
		}
	}
	a.take(&hc.w, hc.name)
	hc.n += int32(k)
}

// widen re-packs a string-id column at a larger width into a fresh stream
// (readers keep the old one).
func (hc *headCol) widen(width uint8, strs []string) {
	a := pooledArena()
	c := hc.decode(len(strs), a)
	var w bitWriter
	for _, id := range c.StrIDs {
		w.writeBits(uint64(id), uint(width))
	}
	arenaPool.Put(a)
	hc.w, hc.width = w, width
}

// toMixed moves the column to the mixed arm, its rows boxed into a fresh
// array; the stream it leaves stays with any reader holding it.
func (hc *headCol) toMixed(strs []string) {
	if hc.mixed {
		return
	}
	a := pooledArena()
	c := hc.decode(len(strs), a)
	c.toMixed(strs)
	arenaPool.Put(a) // toMixed boxed the rows into a fresh array
	hc.mixed, hc.width, hc.vals = true, 0, &c.Vals
	hc.w, hc.enc = bitWriter{}, colEnc{}
}

// header returns hc as a chunk column without its stream: the header a
// cut (chunkCol), a decode and a reader's snapshot share. The presence
// bitmap and the mixed values are the head's own.
func (hc *headCol) header() compCol {
	return compCol{Name: hc.name, Kind: hc.kind, Mixed: hc.mixed, Width: hc.width,
		Present: hc.present, Vals: slices.Clip(hc.mixedVals())}
}

// chunkCol returns hc as a chunk column, its stream copied out at its
// exact size into buf and its mixed values cloned.
func (hc *headCol) chunkCol(buf []byte) (compCol, []byte) {
	cc := hc.header()
	if hc.w.size() > 0 {
		lo := len(buf)
		buf = hc.w.appendTo(buf)
		cc.Data = buf[lo:len(buf):len(buf)]
	}
	if hc.vals != nil {
		cc.Vals = slices.Clone(*hc.vals)
	}
	return cc, buf
}

// decode returns the column's rows as a raw column whose arrays come from
// the arena a. A head stream is written by this process's encoders, so one
// that does not decode is a broken invariant, not bad input.
func (hc *headCol) decode(strsLen int, a *decodeArena) col {
	cc := hc.header()
	w := hc.w.view()
	cc.Data = a.finished(&w)
	v, err := decodeCol(&cc, int(hc.n), strsLen, a)
	if err != nil {
		panic(fmt.Sprintf("tsdb: head column %q does not decode: %v", hc.name, err))
	}
	return col{Name: hc.name, Present: hc.present, Values: v, n: int(hc.n)}
}

// chunk returns the head's rows as a chunk: its streams copied out at
// their exact sizes into one allocation, the bytes the one-shot encoders
// give over the same rows.
func (h *head) chunk() *compRun {
	size := h.ts.size()
	for i := range h.cols {
		size += h.cols[i].w.size()
	}
	buf := h.ts.appendTo(make([]byte, 0, size))
	c := &compRun{N: h.n, MinTS: h.minTS, MaxTS: h.maxTS, Ts: buf[:len(buf):len(buf)], RawBytes: int64(h.n) * 8,
		Cols: make([]compCol, len(h.cols))}
	for i := range h.cols {
		hc := &h.cols[i]
		c.Cols[i], buf = hc.chunkCol(buf)
		c.RawBytes += int64(h.n)*armBytes[hc.arm()] + int64(len(hc.present))*8
	}
	return c
}

// decode returns the head's rows as a raw run whose arrays come from the
// arena a (decodeChunk over the head's headers and finished streams), so
// they last until it is reset: the form the rare paths change and encode
// again before they give a back.
func (h *head) decode(strsLen int, a *decodeArena) *colRun {
	w := h.ts.view()
	c := compRun{N: h.n, Ts: a.finished(&w), Cols: make([]compCol, len(h.cols))}
	for i := range h.cols {
		hc := &h.cols[i]
		w := hc.w.view()
		c.Cols[i] = hc.header()
		c.Cols[i].Data = a.finished(&w)
	}
	run, err := decodeChunk(&c, strsLen, a)
	if err != nil {
		panic(fmt.Sprintf("tsdb: head does not decode: %v", err))
	}
	return run
}

// lateRow takes a one-row late block that falls just before the head's
// last row — what a replica applying the shares of concurrent requests
// sees most — by rewinding every stream to before that row, appending the
// block and then the row again, recovered from the encoder state: the
// merge's rows and bytes (absorb) without decoding the head. It reports
// false, leaving the head as it was, where that does not hold or a column
// would change kind or packing.
func (h *head) lateRow(blk *colRun, strs []string, s *bitWriter) bool {
	if h.n < 2 || len(blk.ts) != 1 || blk.ts[0] < h.undo.prev || blk.ts[0] >= h.maxTS {
		return false
	}
	for i := range h.cols {
		if h.cols[i].mixed {
			return false
		}
	}
	for i := range blk.cols {
		bc := &blk.cols[i]
		if bc.Mixed {
			return false
		}
		if ci := h.colByName(bc.Name); ci >= 0 {
			hc := &h.cols[ci]
			if hc.kind != bc.Kind || hc.arm() == durable.ArmStrIDs && bc.StrIDs[0]>>hc.width != 0 {
				return false
			}
		}
	}
	last := make([]col, len(h.cols))
	for i := range h.cols {
		hc := &h.cols[i]
		c := col{Name: hc.name, n: 1, Values: durable.Values{Kind: hc.kind}}
		switch hc.arm() {
		case durable.ArmFloats:
			c.Floats = []float64{math.Float64frombits(hc.enc.prev)}
		case durable.ArmStrIDs:
			c.StrIDs = []uint32{hc.lastID()}
		default:
			c.Ints = []int64{int64(hc.enc.prev)}
		}
		if hc.present != nil && !bitGet(hc.present, h.n-1) {
			c.Present = []uint64{0}
		}
		last[i] = c
	}
	lastTS := []int64{h.maxTS}
	h.rewind()
	h.append(blk.ts, blk.cols, strs, s, nil)
	h.append(lastTS, last, strs, s, nil)
	return true
}

// lastID reads the string id of the head's last row: the stream's last
// width bits, which start where the column's undo mark is and span at most
// five bytes, the partial one included.
func (hc *headCol) lastID() uint32 {
	if hc.width == 0 {
		return 0
	}
	var tail [8]byte
	if k := copy(tail[:], hc.w.b[hc.undo.blen:]); k < len(tail) {
		tail[k] = hc.w.cur
	}
	r := bitReader{b: tail[:]}
	if hc.undo.n > 0 {
		r.readBits(uint(hc.undo.n))
	}
	return uint32(r.readBits(uint(hc.width)))
}

// rewind returns the head to before its last row, into fresh streams and
// bitmaps: readers may hold the current ones.
func (h *head) rewind() {
	back := func(w *bitWriter, blen int32, cur, n uint8) bitWriter {
		b := make([]byte, blen, cap(w.b))
		copy(b, w.b)
		return bitWriter{b: b, cur: cur, n: n}
	}
	n := h.n - 1
	u := h.undo
	h.ts = back(&h.ts, u.blen, u.cur, u.n)
	h.n, h.maxTS, h.tsDelta = n, u.prev, u.delta
	for i := range h.cols {
		hc := &h.cols[i]
		cu := hc.undo
		hc.w = back(&hc.w, cu.blen, cu.cur, cu.n)
		hc.enc = colEnc{prev: cu.prev, lead: cu.lead, sig: cu.sig}
		hc.n = int32(n)
		if hc.present != nil {
			np := make([]uint64, bitWords(n))
			copy(np, hc.present)
			if r := uint(n) & 63; r != 0 {
				np[len(np)-1] &= 1<<r - 1
			}
			hc.present = np
		}
	}
}

// absorb makes the head the stable merge of its rows and a late block's
// (mergeRuns: the head's rows first on equal timestamps), encoded afresh.
// Where the block falls between two of the head's rows and the merge
// would change no column's kind, the rows are appended in merge order —
// the head's up to the block, the block, the rest — with no merged copy.
func (h *head) absorb(blk *colRun, strs []string, s *bitWriter) {
	a := pooledArena()
	defer arenaPool.Put(a)
	run := h.decode(len(strs), a)
	h.clear()
	if j := run.splice(blk); j > 0 {
		ts, cols := run.view(0, j)
		h.append(ts, cols, strs, s, nil)
		h.append(blk.ts, blk.cols, strs, s, nil)
		if j < len(run.ts) {
			ts, cols = run.view(j, len(run.ts))
			h.append(ts, cols, strs, s, nil)
		}
		return
	}
	m := mergeRuns(strs, run, blk)
	h.append(m.ts, m.cols, strs, s, nil)
}

// rewrite applies a block whose timestamps are exactly the head's — the
// same-timestamp rewrite — field by field with last-write-wins, and
// reports whether it did. The head is decoded, once, only when the row
// count and both ends already match.
func (h *head) rewrite(b *runBuilder, m *measurement) bool {
	if h.n != len(b.ts) || h.minTS != b.ts[0] || h.maxTS != b.ts[len(b.ts)-1] {
		return false
	}
	strs := m.strs.vals
	a := pooledArena()
	defer arenaPool.Put(a)
	run := h.decode(len(strs), a)
	if !slices.Equal(run.ts, b.ts) {
		return false
	}
	run.rewriteBlock(b, m)
	h.clear()
	h.append(run.ts, run.cols, strs, &b.enc, nil)
	return true
}

// clear empties the head. Its streams are dropped, not reused: readers may
// hold them.
func (h *head) clear() {
	clear(h.cols) // drop the old streams from the reused array
	*h = head{cols: h.cols[:0]}
}

// residentBytes is the head's share of lms_db_resident_bytes: the len of
// what it stores.
func (h *head) residentBytes() int64 {
	n := int64(h.ts.size())
	for i := range h.cols {
		hc := &h.cols[i]
		n += int64(hc.w.size()) + int64(len(hc.present))*8 + int64(len(hc.mixedVals()))*valueBytes
	}
	return n
}

// headSnap is a head as a reader captured it under the shard read lock:
// the row count, and per requested column the chunk column's header with
// the stream's complete bytes and its partial byte by value.
// materializeSnap decodes it outside the lock, as it decodes a chunk.
type headSnap struct {
	n    int
	ts   bitWriter
	cols []headColSnap // parallel to the query's columns
}

type headColSnap struct {
	ok bool
	cc compCol
	w  bitWriter
}

// snapshot captures the head for the query columns cols. The caller holds
// the shard read lock.
func (h *head) snapshot(cols []AggCol) *headSnap {
	hs := &headSnap{n: h.n, ts: h.ts.view(), cols: make([]headColSnap, len(cols))}
	for ci := range cols {
		if i := h.colByName(cols[ci].Field); i >= 0 {
			hc := &h.cols[i]
			hs.cols[ci] = headColSnap{ok: true, w: hc.w.view(), cc: hc.header()}
		}
	}
	return hs
}
