package tsdb

// Raw columnar runs (DESIGN.md §8): one sorted timestamp column plus one
// typed value column per field, instead of a slice of per-point field
// maps. It is the form rows take between encodings: the write path's
// pending block (runBuilder), and a run decoded from a head or a chunk to
// be merged, rewritten or cut. Nothing resident is raw — each series' newest
// run is its head (head.go), an append-only encoded stream per column, and
// every older run is a chunk (compress.go) — so the aggregation sweeps
// (agg.go) run over columns decoded into query scratch.
//
// A column is "dense" (present == nil) while every row carries a value —
// the hot case for metric fields — and materializes a presence bitmap only
// when a row skips the field (sparse event/annotation columns). Dense
// columns pay zero presence bookkeeping on the append path and aggregate
// with straight slice sweeps. A presence bitmap that a head publishes is
// copy-on-write (grownPresence): readers alias it.

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

// allSet reports whether bits [0, n) of bm are all set.
func allSet(bm []uint64, n int) bool {
	for i := 0; i < n; i++ {
		if !bitGet(bm, i) {
			return false
		}
	}
	return true
}

// setBitRange sets bits [lo, hi) of bm.
func setBitRange(bm []uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		bitSet(bm, i)
	}
}

// grownPresence returns a fresh bitmap for n rows holding p's bits, or
// bits [0, have) when p is nil (dense): the copy-on-write step of a
// published bitmap that gains rows.
func grownPresence(p []uint64, have, n int) []uint64 {
	np := make([]uint64, bitWords(n))
	if p != nil {
		copy(np, p)
	} else {
		setBitRange(np, 0, have)
	}
	return np
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

// sameKind reports whether two columns hold one kind of value unboxed, or
// are both mixed: their rows then sit in the same typed array and can be
// appended or merged as they are.
func sameKind(kind lineproto.ValueKind, mixed bool, okind lineproto.ValueKind, omixed bool) bool {
	return mixed == omixed && (mixed || kind == okind)
}

func (c *col) sameKind(o *col) bool { return sameKind(c.Kind, c.Mixed, o.Kind, o.Mixed) }

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

// --- decoded-run mutation (copy-on-write) ------------------------------

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

// --- runs --------------------------------------------------------------

// sealRows is the seal rule (DESIGN.md §13): a series' head takes in-order
// appends while it holds fewer rows; then the next in-order block cuts it
// into a chunk and starts the head afresh. A rule of the data, not a timer,
// so the layout a write sequence builds never depends on when it was
// written; it also bounds what an exact rewrite or a late block decodes. A variable
// only for BenchmarkSealRows.
var sealRows = 32

// maxChunkRows caps the chunks a cut grows by merging chunks
// (series.mergeSpans): a chunk's fixed cost — its headers, the raw first
// value of every column — spread over many rows, against the whole chunk a
// narrow window decodes. InfluxDB's TSM engine cuts its blocks at 1 000
// points for the same trade.
const maxChunkRows = 1024

// colRun is a run in raw columnar layout: the timestamp column plus one col
// per field seen in the run, every col covering exactly len(ts) rows. It
// is private to whoever decoded or merged it.
type colRun struct {
	ts   []int64
	cols []col
}

func (r *colRun) colByName(name string) int {
	for i := range r.cols {
		if r.cols[i].Name == name {
			return i
		}
	}
	return -1
}

// rewriteBlock applies a builder block whose timestamps exactly equal the
// run's (the same-timestamp rewrite pattern): instead of opening a new run
// and paying compaction, each rewritten field is merged row-for-row with
// last-write-wins (InfluxDB duplicate-point semantics). Fields absent from
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

// since returns r's rows at or after t as a block to append — what a
// retention cut keeps of a run — sharing r's value arrays (view). A
// column with a value in every row it keeps comes out dense.
func (r *colRun) since(t int64) ([]int64, []col) {
	lo := sort.Search(len(r.ts), func(i int) bool { return r.ts[i] >= t })
	ts, cols := r.view(lo, len(r.ts))
	for i := range cols {
		if p := cols[i].Present; p != nil && allSet(p, len(ts)) {
			cols[i].Present = nil
		}
	}
	return ts, cols
}

// splice returns where the rows of b fall between two rows of r — the
// count of r's rows that mergeRuns(r, b) puts before every row of b, when
// it puts all of r's others after them — or 0 when they do not, or when
// the merge would box a column (a mixed column, a kind conflict), which
// appending the three parts in order would not.
func (r *colRun) splice(b *colRun) int {
	for i := range r.cols {
		if r.cols[i].Mixed {
			return 0
		}
	}
	for i := range b.cols {
		bc := &b.cols[i]
		if bc.Mixed {
			return 0
		}
		if ci := r.colByName(bc.Name); ci >= 0 && r.cols[ci].Kind != bc.Kind {
			return 0
		}
	}
	j := sort.Search(len(r.ts), func(i int) bool { return r.ts[i] > b.ts[0] })
	if j < len(r.ts) && r.ts[j] <= b.ts[len(b.ts)-1] {
		return 0
	}
	return j
}

// view returns rows [lo, hi) of r as a block to append, sharing r's value
// arrays; a presence bitmap is shifted into a fresh one.
func (r *colRun) view(lo, hi int) ([]int64, []col) {
	cols := make([]col, len(r.cols))
	for i := range r.cols {
		c := &r.cols[i]
		cols[i] = col{Name: c.Name, Values: c.Slice(lo, hi), n: hi - lo}
		if c.Present != nil {
			cols[i].Present = make([]uint64, bitWords(hi-lo))
			for k := lo; k < hi; k++ {
				if bitGet(c.Present, k) {
					bitSet(cols[i].Present, k-lo)
				}
			}
		}
	}
	return r.ts[lo:hi], cols
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
// reused across batches (shard scratch); every commit path encodes or
// copies out of it, so its arrays stay warm, and enc is the warm stream
// the head encodes each block into before taking its bytes. enc and spans
// are also the scratch of the merges a cut or a sweep makes under the
// shard lock (series.compact).
type runBuilder struct {
	ts     []int64
	cols   []col
	sorted bool
	enc    bitWriter
	spans  []runSpan
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
