package tsdb

// Columnar run storage (DESIGN.md §8). A point run is stored as one sorted
// timestamp column plus one typed value column per field, instead of a
// slice of per-point field maps: a 100k-point scan walks contiguous
// []float64 / []int64 / interned-string-id slices and the aggregation
// inner loops (agg.go) become index-free column sweeps.
//
// Invariants the lock-light read path (select.go) relies on, extending the
// series invariants documented in tsdb.go:
//
//   - run.ts is sorted and only ever grows by appending (readers holding a
//     shorter slice header never observe the new tail);
//   - value slices only grow by appending, and elements below a published
//     length are never overwritten in place — the dedup rewrite path and
//     kind conversions swap in freshly allocated arrays (copy-on-write);
//   - presence bitmaps are fully copy-on-write: any change allocates a new
//     word array, because appending a bit would mutate the shared last
//     word a reader may have snapshotted.
//
// A column is "dense" (present == nil) while every row carries a value —
// the hot case for metric fields — and materializes a presence bitmap only
// when a row skips the field (sparse event/annotation columns). Dense
// columns pay zero presence bookkeeping on the append path and aggregate
// with straight slice sweeps.

import (
	"cmp"
	"math"
	"sort"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// --- bit helpers -------------------------------------------------------

func bitWords(n int) int { return (n + 63) / 64 }

func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<(uint(i)&63)) != 0 }

func bitSet(bm []uint64, i int) { bm[i>>6] |= 1 << (uint(i) & 63) }

// denseBits returns a fresh bitmap with bits [0, n) set.
func denseBits(n int) []uint64 {
	bm := make([]uint64, bitWords(n))
	for i := range bm {
		bm[i] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 {
		bm[len(bm)-1] = (1 << r) - 1
	}
	return bm
}

// setBitRange sets bits [lo, hi) of bm.
func setBitRange(bm []uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		bitSet(bm, i)
	}
}

// --- string interning --------------------------------------------------

// strTable interns the string field values of one measurement: a column
// stores uint32 ids, the table owns each distinct payload exactly once.
// The vals slice is append-only, so a reader that snapshotted its header
// under the shard RLock can resolve every id it saw after releasing the
// lock (ids referenced by snapshotted rows are always < the snapshotted
// length).
type strTable struct {
	ids  map[string]uint32
	vals []string
}

// intern returns the id of the payload b, a view into a batch frame: a
// known value is found without becoming a string, a new one is copied out
// once.
func (t *strTable) intern(b []byte) uint32 {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	s := string(b)
	id := uint32(len(t.vals))
	t.ids[s] = id
	t.vals = append(t.vals, s)
	return id
}

// --- columns -----------------------------------------------------------

// col is one field's value column over a run: its name, the presence
// bitmap (bit i ↔ row i), the shared column shape (durable.Values, the
// rows in one typed arm) and the row count. Absent rows hold a zero
// placeholder in the active arm and a cleared presence bit; Present is nil
// while the column is dense, and copy-on-write once published (see the
// file comment).
type col struct {
	Name    string
	Present []uint64
	durable.Values
	n int // rows covered (values + gaps); equals len(run.ts) once committed
}

// newCol returns an empty column for a field first seen with the given kind.
func newCol(name string, kind lineproto.ValueKind) col {
	return col{Name: name, Values: durable.Values{Kind: kind}}
}

// has reports whether row i carries a value.
func (c *col) has(i int) bool { return c.Present == nil || bitGet(c.Present, i) }

// sameKind reports whether c and o hold one kind of value unboxed, or are
// both mixed: their rows then sit in the same typed array and can be
// appended or merged as they are.
func (c *col) sameKind(o *col) bool {
	return c.Mixed == o.Mixed && (c.Mixed || c.Kind == o.Kind)
}

// toMixed converts a typed column to the mixed representation into a
// freshly allocated vals array (copy-on-write safe for published columns).
// Kind keeps recording what the column started as.
func (c *col) toMixed(strs []string) {
	if c.Mixed {
		return
	}
	vals := make([]lineproto.Value, c.n)
	for i := range vals {
		if c.has(i) {
			vals[i] = c.At(i, strs)
		}
	}
	c.Values = durable.Values{Kind: c.Kind, Mixed: true, Vals: vals}
}

// boxed returns src, or a mixed copy of it when it is typed: the form a
// typed block takes to meet a column that a kind conflict has promoted.
func boxed(src *col, strs []string) *col {
	if src.Mixed {
		return src
	}
	cp := *src
	cp.toMixed(strs)
	return &cp
}

// --- builder-side mutation (private pending columns only) ---------------

// padTo registers rows [c.n, r) as absent. Builder-only: it may grow the
// presence bitmap in place.
func (c *col) padTo(r int) {
	if c.n >= r {
		return
	}
	if c.Present == nil {
		c.Present = denseBits(c.n)
	}
	for len(c.Present) < bitWords(r) {
		c.Present = append(c.Present, 0)
	}
	c.Pad(r - c.n)
	c.n = r
}

// add appends one field's value as row c.n, promoting the column to mixed
// when the value's kind is not the column's. Builder-only (in-place bit
// append).
func (c *col) add(f *durable.BatchField, st *strTable) {
	if f.Kind != c.Kind {
		c.toMixed(st.vals)
	}
	if c.Present != nil {
		for len(c.Present) < bitWords(c.n+1) {
			c.Present = append(c.Present, 0)
		}
		bitSet(c.Present, c.n)
	}
	switch c.Arm() {
	case durable.ArmVals:
		c.Vals = append(c.Vals, f.Value())
	case durable.ArmFloats:
		c.Floats = append(c.Floats, math.Float64frombits(f.Num))
	case durable.ArmStrIDs:
		c.StrIDs = append(c.StrIDs, st.intern(f.Str))
	default:
		c.Ints = append(c.Ints, int64(f.Num))
	}
	c.n++
}

// gather rebuilds the column in permutation order (row i of the result is
// old row idx[i]) into fresh arrays. Builder-only (used by the stable
// timestamp sort of out-of-order batches).
func (c *col) gather(idx []int32) {
	if c.Present != nil {
		np := make([]uint64, bitWords(len(idx)))
		for i, j := range idx {
			if bitGet(c.Present, int(j)) {
				bitSet(np, i)
			}
		}
		c.Present = np
	}
	c.Take(c.Values, durable.Values{}, idx)
}

// truncate empties a builder column slot for reuse, keeping the allocated
// typed arrays (their contents were already copied out by the previous
// commit).
func (c *col) truncate() {
	c.n = 0
	c.Mixed = false
	c.Present = nil
	c.Floats = c.Floats[:0]
	c.Ints = c.Ints[:0]
	c.StrIDs = c.StrIDs[:0]
	c.Vals = c.Vals[:0]
}

// clone returns a deep copy (fresh arrays) of the column.
func (c *col) clone() col {
	out := *c
	if c.Present != nil {
		out.Present = append([]uint64(nil), c.Present...)
	}
	out.Values = c.CloneRange(0, c.n)
	return out
}

// --- published-column mutation (copy-on-write presence) -----------------

// padAppendCOW registers rows [c.n, newN) as absent on a published column:
// values are appended (invisible past snapshotted lengths), the presence
// bitmap is rebuilt into a fresh array.
func (c *col) padAppendCOW(newN int) {
	np := make([]uint64, bitWords(newN))
	if c.Present != nil {
		copy(np, c.Present)
	} else {
		setBitRange(np, 0, c.n)
	}
	c.Present = np
	c.Pad(newN - c.n)
	c.n = newN
}

// appendBlockCOW appends every row of src (a finished builder column of
// the same field) onto the published column c. strs resolves string ids
// when a kind conflict forces the mixed representation.
func (c *col) appendBlockCOW(src *col, strs []string) {
	oldN := c.n
	newN := oldN + src.n
	if c.Present != nil || src.Present != nil {
		np := make([]uint64, bitWords(newN))
		if c.Present != nil {
			copy(np, c.Present)
		} else {
			setBitRange(np, 0, oldN)
		}
		for i := 0; i < src.n; i++ {
			if src.has(i) {
				bitSet(np, oldN+i)
			}
		}
		c.Present = np
	}
	if !c.sameKind(src) {
		c.toMixed(strs)
		src = boxed(src, strs)
	}
	c.Append(&src.Values)
	c.n = newN
}

// overwriteCOW applies src (a builder column whose rows map 1:1 onto c's
// rows) with last-write-wins per row, into freshly allocated arrays so
// concurrent snapshots keep reading the previous version.
func (c *col) overwriteCOW(src *col, strs []string) {
	kind := c.Kind
	if c.sameKind(src) && src.Present == nil {
		// The block rewrites every row: the new arrays replace the old
		// ones wholesale and the column is dense afterwards.
		c.Values = src.CloneRange(0, src.n)
		c.Present = nil
	} else {
		// Row i comes from src where src carries a value and stays c's
		// own otherwise: a two-source merge ordered by src's presence.
		take := make([]int32, c.n)
		for i := range take {
			take[i] = int32(i)
			if src.has(i) {
				take[i] = int32(^i)
			}
		}
		c.Values = mergeValues(c, src, take, strs)
		c.unionPresentCOW(src)
	}
	c.Kind = kind // promoted or not, a column keeps the kind it started as
}

// unionPresentCOW merges src's presence into c (rows map 1:1).
func (c *col) unionPresentCOW(src *col) {
	if c.Present == nil {
		return // already dense, union is a no-op
	}
	if src.Present == nil {
		c.Present = nil // src covers every row
		return
	}
	np := append([]uint64(nil), c.Present...)
	for i := range src.Present {
		np[i] |= src.Present[i]
	}
	c.Present = np
}

// sliceRows returns a fresh column holding rows [lo, hi) (used by the
// retention pruner; readers may still hold the old arrays).
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

// --- runs --------------------------------------------------------------

// sealRows is the seal rule (DESIGN.md §13): a series' newest run takes
// in-order appends while it holds fewer rows; then the next in-order block
// opens a new run and the compaction job compresses the full one. A rule
// of the data, not a timer, so the layout a write sequence builds never
// depends on when the job ran; it also bounds the copy-on-write bitmap
// work of extending a sparse run. A variable only for BenchmarkSealRows.
var sealRows = 32

// maxChunkRows caps the chunks the compaction job grows by merging sealed
// runs (series.jobSpans): a chunk's fixed cost — its headers, the raw first
// value of every column — spread over many rows, against the whole chunk a
// narrow window decodes. InfluxDB's TSM engine cuts its blocks at 1 000
// points for the same trade.
const maxChunkRows = 1024

// colRun is one sorted, immutable-to-readers run of a series in columnar
// layout: the timestamp column plus one col per field seen in the run.
// Every col covers exactly len(ts) rows once the owning writeBatch commit
// returns.
//
// A run lives in one of two resident states: raw (ts/cols hold the typed
// arrays) or compressed (comp holds the Gorilla-encoded chunks, ts/cols
// are nil — compress.go, DESIGN.md §13). Both states obey the same reader
// contract: everything a snapshot captures under the shard RLock stays
// immutable after the lock is released.
type colRun struct {
	ts   []int64
	cols []col

	// comp is the compressed form; non-nil exactly when ts/cols are nil.
	// Only construction sets it: a chunk is never written to.
	comp *compRun
	// gen counts the head's in-place mutations (appendBlock/rewriteBlock), so
	// the compressor can encode outside the lock and verify-and-swap under it.
	gen uint64
}

func (r *colRun) colByName(name string) int {
	for i := range r.cols {
		if r.cols[i].Name == name {
			return i
		}
	}
	return -1
}

// rows is the run's row count in either resident state.
func (r *colRun) rows() int {
	if r.comp != nil {
		return r.comp.N
	}
	return len(r.ts)
}

// minTS is the run's oldest timestamp in either resident state.
func (r *colRun) minTS() int64 {
	if r.comp != nil {
		return r.comp.MinTS
	}
	return r.ts[0]
}

// maxTS is the run's newest timestamp in either resident state.
func (r *colRun) maxTS() int64 {
	if r.comp != nil {
		return r.comp.MaxTS
	}
	return r.ts[len(r.ts)-1]
}

// rawRun returns the sealed (raw-column) form of the run, decompressing a
// compressed run into fresh arrays. strsLen bounds decoded string ids.
func (r *colRun) rawRun(strsLen int) (*colRun, error) {
	if r.comp == nil {
		return r, nil
	}
	return decompress(r.comp, strsLen)
}

// appendBlock extends the run with a finished builder block whose first
// timestamp is >= the run's last (the in-order hot path). Only appends and
// presence copy-on-write — published array prefixes are never rewritten.
// strs is the measurement's intern table, or a snapshot of it.
func (r *colRun) appendBlock(b *runBuilder, strs []string) {
	oldN := len(r.ts)
	newN := oldN + len(b.ts)
	for i := range b.cols {
		bc := &b.cols[i]
		ci := r.colByName(bc.Name)
		if ci < 0 {
			r.cols = append(r.cols, newCol(bc.Name, bc.Kind))
			ci = len(r.cols) - 1
			if oldN > 0 {
				r.cols[ci].padAppendCOW(oldN)
			}
		}
		r.cols[ci].appendBlockCOW(bc, strs)
	}
	for i := range r.cols {
		if r.cols[i].n < newN {
			r.cols[i].padAppendCOW(newN)
		}
	}
	r.ts = append(r.ts, b.ts...)
}

// rewriteBlock applies a builder block whose timestamps exactly equal the
// run's (the same-timestamp rewrite pattern): instead of opening a new run
// and paying compaction, each rewritten field is merged row-for-row with
// last-write-wins (InfluxDB duplicate-point semantics), copy-on-write so
// concurrent snapshots stay on the previous version. Fields absent from
// the block keep their stored values.
func (r *colRun) rewriteBlock(b *runBuilder, m *measurement) {
	for i := range b.cols {
		bc := &b.cols[i]
		ci := r.colByName(bc.Name)
		if ci < 0 {
			// A field the run had never seen: the cloned builder column
			// becomes the run column (same row count by construction).
			r.cols = append(r.cols, bc.clone())
			continue
		}
		r.cols[ci].overwriteCOW(bc, m.strs.vals)
	}
}

// sliceRun returns a fresh run holding rows [lo, hi).
func (r *colRun) sliceRun(lo, hi int) *colRun {
	out := &colRun{ts: append([]int64(nil), r.ts[lo:hi]...)}
	out.cols = make([]col, 0, len(r.cols))
	for i := range r.cols {
		out.cols = append(out.cols, r.cols[i].sliceRows(lo, hi))
	}
	return out
}

// mergeRuns stably merges two sorted runs into a freshly allocated run; on
// equal timestamps rows of a precede rows of b (a is the older run, so the
// merge preserves insertion order exactly like the row engine did). strs
// is the measurement's intern table, or a snapshot of it.
func mergeRuns(strs []string, a, b *colRun) *colRun {
	na, nb := len(a.ts), len(b.ts)
	n := na + nb
	ts := make([]int64, 0, n)
	// take[i] >= 0 selects row take[i] of a; take[i] < 0 selects row
	// ^take[i] of b.
	take := make([]int32, 0, n)
	i, j := 0, 0
	for i < na && j < nb {
		if a.ts[i] <= b.ts[j] {
			ts = append(ts, a.ts[i])
			take = append(take, int32(i))
			i++
		} else {
			ts = append(ts, b.ts[j])
			take = append(take, int32(^j))
			j++
		}
	}
	for ; i < na; i++ {
		ts = append(ts, a.ts[i])
		take = append(take, int32(i))
	}
	for ; j < nb; j++ {
		ts = append(ts, b.ts[j])
		take = append(take, int32(^j))
	}

	out := &colRun{ts: ts}
	for ci := range a.cols {
		ca := &a.cols[ci]
		var cb *col
		if bi := b.colByName(ca.Name); bi >= 0 {
			cb = &b.cols[bi]
		}
		out.cols = append(out.cols, mergeCols(ca, cb, take, strs))
	}
	for ci := range b.cols {
		cb := &b.cols[ci]
		if a.colByName(cb.Name) < 0 {
			out.cols = append(out.cols, mergeCols(nil, cb, take, strs))
		}
	}
	return out
}

// mergeCols gathers one field column of a merged run. ca rows are selected
// by take values >= 0, cb rows by values < 0; a nil side contributes
// absent rows.
func mergeCols(ca, cb *col, take []int32, strs []string) col {
	pick := func(t int32) (*col, int) {
		if t >= 0 {
			return ca, int(t)
		}
		return cb, int(^t)
	}
	out := col{n: len(take)}
	out.Name = cmp.Or(ca, cb).Name
	out.Values = mergeValues(ca, cb, take, strs)
	dense := !out.Mixed && ca != nil && cb != nil && ca.Present == nil && cb.Present == nil
	if !dense {
		out.Present = make([]uint64, bitWords(len(take)))
		for r, t := range take {
			if c, idx := pick(t); c != nil && c.has(idx) {
				bitSet(out.Present, r)
			}
		}
	}
	return out
}

// mergeValues selects the rows of a merged column (durable.Values.Take)
// from ca and cb, either of which may be nil. Sides whose rows sit in
// different typed arrays — a kind conflict, or one side already mixed —
// meet boxed, and the result is mixed; it then carries the zero kind (a
// merge builds a new column, and a mixed column's kind is never read).
func mergeValues(ca, cb *col, take []int32, strs []string) durable.Values {
	ref := cmp.Or(ca, cb)
	out := durable.Values{Kind: ref.Kind}
	if ref.Mixed || (ca != nil && cb != nil && !ca.sameKind(cb)) {
		out = durable.Values{Mixed: true}
	}
	side := func(c *col) durable.Values {
		switch {
		case c == nil:
			return durable.Values{}
		case out.Mixed:
			return boxed(c, strs).Values
		}
		return c.Values
	}
	out.Take(side(ca), side(cb), take)
	return out
}

// --- pending builder ---------------------------------------------------

// runBuilder accumulates one series' pending rows of a batch in columnar
// form: no per-point field map is allocated on the write path. It is
// reused across batches (shard scratch); every commit path copies out of
// it, so its arrays stay warm.
type runBuilder struct {
	ts     []int64
	cols   []col
	sorted bool
}

func (b *runBuilder) reset() {
	b.ts = b.ts[:0]
	b.cols = b.cols[:0]
	b.sorted = true
}

// colIdx finds or creates the builder column for one field, named by a
// view into the batch frame. The caller passes the position hint j (the
// field's index in the point's ascending field list): consecutive points
// with an identical schema hit their column without any search.
func (b *runBuilder) colIdx(m *measurement, j int, name []byte, kind lineproto.ValueKind) int {
	if j < len(b.cols) && b.cols[j].Name == string(name) {
		return j
	}
	for i := range b.cols {
		if b.cols[i].Name == string(name) {
			return i
		}
	}
	canon, ok := m.names[string(name)]
	if !ok {
		canon = m.internField(string(name), kind)
	}
	// Reuse the spare col slot (and its typed arrays) left by a previous
	// batch when its shape matches; otherwise start a fresh column.
	if len(b.cols) < cap(b.cols) {
		b.cols = b.cols[:len(b.cols)+1]
		c := &b.cols[len(b.cols)-1]
		if c.Name == canon && c.Kind == kind {
			c.truncate()
			return len(b.cols) - 1
		}
		*c = newCol(canon, kind)
		return len(b.cols) - 1
	}
	b.cols = append(b.cols, newCol(canon, kind))
	return len(b.cols) - 1
}

// addPoint appends one point's timestamp and fields. fields must be in
// ascending key order without duplicates (what a durable.BatchCursor
// presents).
func (b *runBuilder) addPoint(m *measurement, fields []durable.BatchField, tns int64) {
	r := len(b.ts)
	if r > 0 && b.ts[r-1] > tns {
		b.sorted = false
	}
	b.ts = append(b.ts, tns)
	for j := range fields {
		idx := b.colIdx(m, j, fields[j].Key, fields[j].Kind)
		c := &b.cols[idx]
		c.padTo(r)
		c.add(&fields[j], &m.strs)
	}
}

// finish pads every column to the full row count and, if the batch was
// internally out of order, stable-sorts all columns by timestamp.
func (b *runBuilder) finish() {
	for i := range b.cols {
		b.cols[i].padTo(len(b.ts))
	}
	if b.sorted {
		return
	}
	idx := make([]int32, len(b.ts))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(i, j int) bool { return b.ts[idx[i]] < b.ts[idx[j]] })
	nts := make([]int64, len(b.ts))
	for i, j := range idx {
		nts[i] = b.ts[j]
	}
	b.ts = nts
	for i := range b.cols {
		b.cols[i].gather(idx)
	}
	b.sorted = true
}

// tsEqual reports whether the builder's timestamps exactly equal ts.
func (b *runBuilder) tsEqual(ts []int64) bool {
	if len(b.ts) != len(ts) {
		return false
	}
	if b.ts[0] != ts[0] || b.ts[len(b.ts)-1] != ts[len(ts)-1] {
		return false
	}
	for i := range b.ts {
		if b.ts[i] != ts[i] {
			return false
		}
	}
	return true
}

// newRun copies the finished block into a new run whose arrays have room
// for size rows — sealRows for a block the write path commits, so the
// in-order appends that follow until it seals copy nothing. The builder
// keeps its arrays for the next block.
func (b *runBuilder) newRun(strs []string, size int) *colRun {
	size = max(size, len(b.ts))
	r := &colRun{ts: make([]int64, 0, size), cols: make([]col, len(b.cols))}
	for i := range b.cols {
		r.cols[i] = newCol(b.cols[i].Name, b.cols[i].Kind)
		r.cols[i].Grow(size)
	}
	r.appendBlock(b, strs)
	return r
}
