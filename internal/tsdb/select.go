package tsdb

// The two-phase, lock-light query engine behind DB.SelectContext
// (DESIGN.md §6).
//
// Phase 1 (snapshotSelect) takes the shard lock of the queried measurement
// in *read* mode and only long enough to capture the matching runs whose
// time bounds meet the query's range: a chunk as its pointer (a chunk is
// never written to), a head as the headers of its streams and their
// partial bytes (head.go) — the write path never rewrites a byte a reader
// can see (see the series invariants in tsdb.go), so what it captured
// stays valid after the lock is released.
//
// Phase 2 (executeGroups) buckets the runs by the group-by tag combination,
// decodes each into pooled scratch with the time-range cut and, for raw
// queries, the row Limit pushed into the decode, and runs filtering, window
// bucketing and aggregation outside any lock, one
// group after another on the request's own goroutine: concurrent queries
// already run on goroutines of their own. Aggregates are computed as per-run
// partials (filled by the vectorized column folds in agg.go) merged in run
// order, so the result depends on the data alone.

import (
	"context"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// colView is the read-only window one snapshotted run exposes over one
// requested column: the sliced value headers plus the run's full presence
// bitmap with the slice offset (presence bitmaps are copy-on-write on the
// writer side, so aliasing them is safe). ok is false when the run never
// saw the field.
type colView struct {
	ok      bool
	off     int      // row offset of this view within the presence bitmap
	present []uint64 // nil = dense
	durable.Values
}

// has reports whether local row i (0-based within the view) has a value.
// A view over a run that never saw the field (ok == false) has no rows.
func (v *colView) has(i int) bool {
	return v.ok && (v.present == nil || bitGet(v.present, v.off+i))
}

// firstPresent returns the first local row in [lo, hi) carrying a value,
// or -1.
func (v *colView) firstPresent(lo, hi int) int {
	if v.present == nil {
		if lo < hi {
			return lo
		}
		return -1
	}
	for i := lo; i < hi; i++ {
		if bitGet(v.present, v.off+i) {
			return i
		}
	}
	return -1
}

// lastPresent returns the last local row in [lo, hi) carrying a value, or
// -1.
func (v *colView) lastPresent(lo, hi int) int {
	if v.present == nil {
		if lo < hi {
			return hi - 1
		}
		return -1
	}
	for i := hi - 1; i >= lo; i-- {
		if bitGet(v.present, v.off+i) {
			return i
		}
	}
	return -1
}

// runSnap is one run's in-range snapshot: the timestamp window plus one
// colView per requested column (parallel to the resolved column list).
// Phase 1 captures a chunk as its immutable pointer (comp) and a head as
// its headSnap (head); phase 2 decodes either into scratch-backed views
// (materializeSnap, compress.go) before aggregation starts.
type runSnap struct {
	ts   []int64
	cols []colView
	comp *compRun
	head *headSnap
}

// seriesSpan is one matching series and its snapshotted runs, runs[lo:hi]
// of phase 1's list in creation order.
type seriesSpan struct {
	tags   map[string]string
	lo, hi int
}

// selectGroup is one result series in the making: every run whose tags
// project to the same group-by combination, key being that combination as
// seriesKey renders it.
type selectGroup struct {
	key  string
	tags map[string]string
	runs []runSnap
}

// resolve expands the projection against the measurement's schema: the
// empty list and every "*" become the sorted field names, a "*" under an
// aggregate carrying that aggregate to each of them. A list naming its
// fields outright is returned as it is.
func (q Query) resolve(m *measurement) []AggCol {
	list := q.Cols
	if len(list) == 0 {
		list = []AggCol{{Field: "*"}}
	}
	stars := 0
	for _, c := range list {
		if c.Field == "*" {
			stars++
		}
	}
	if stars == 0 {
		return list
	}
	names := m.fieldNames()
	cols := make([]AggCol, 0, len(list)+stars*(len(names)-1))
	for _, c := range list {
		if c.Field != "*" {
			cols = append(cols, c)
			continue
		}
		for _, f := range names {
			cols = append(cols, AggCol{Field: f, Agg: c.Agg, Pct: c.Pct})
		}
	}
	return cols
}

// snapshotSelect is phase 1: resolve the column set and snapshot the
// matching runs' column windows, grouped by the group-by tag projection.
// Only the shard read lock is held, and only while walking the series the
// filter names (the tag index's shortest posting list, index.go) and
// slicing headers. The returned strs slice resolves interned string ids
// (append-only on the writer side, so the header stays valid outside the
// lock).
//
// prof, when non-nil (EXPLAIN ANALYZE, profile.go), counts the series
// visited, the runs admitted vs pruned on time bounds and the rows
// examined; nil — every ordinary query — costs one predictable branch per
// series and run.
func (db *DB) snapshotSelect(q Query, prof *selectProf) ([]AggCol, []string, []*selectGroup, error) {
	startNS, endNS := rangeNS(q.Start, q.End)
	// admit bound-checks one run. Its header carries its time bounds; the
	// precise range cut (and the discovery that a bounds-overlapping run
	// holds no row in range) happens at decode time in phase 2.
	admit := func(minTS, maxTS int64, n int) bool {
		if minTS > endNS || maxTS < startNS {
			if prof != nil {
				prof.RunsPruned++
			}
			return false
		}
		if prof != nil {
			prof.RunsScanned++
			prof.PointsExamined += int64(n)
		}
		return true
	}

	sh := db.shardFor(q.Measurement)
	if prof != nil {
		prof.ShardsVisited = 1
	}
	sh.mu.RLock()
	m, ok := sh.measurements[q.Measurement]
	if !ok {
		sh.mu.RUnlock()
		return nil, nil, nil, ErrNoMeasurement
	}
	cols := q.resolve(m)
	strs := m.strs.vals
	gkeys := q.GroupByTags
	if len(gkeys) == 1 && gkeys[0] == "*" {
		gkeys = m.idx.tagKeys()
	} else {
		gkeys = slices.Compact(slices.Sorted(slices.Values(gkeys)))
	}
	// The candidates come in series-key order, so the spans do, and a
	// series' runs keep their creation order: timestamp ties across runs
	// resolve in insertion order.
	cand := m.idx.candidates(q.Filter)
	if prof != nil {
		prof.SeriesScanned = len(cand)
	}
	recheck := len(q.Filter) > 1
	runs := make([]runSnap, 0, len(cand))
	var spans []seriesSpan
	for _, o := range cand {
		sr := m.idx.slots[o]
		if recheck && !q.Filter.matches(sr.tags) {
			continue
		}
		first := len(runs)
		for _, c := range sr.runs {
			if admit(c.MinTS, c.MaxTS, c.N) {
				runs = append(runs, runSnap{comp: c})
			}
		}
		if h := sr.head; h != nil && admit(h.minTS, h.maxTS, h.n) {
			runs = append(runs, runSnap{head: h.snapshot(cols)})
		}
		if len(runs) > first {
			spans = append(spans, seriesSpan{tags: sr.tags, lo: first, hi: len(runs)})
		}
	}
	sh.mu.RUnlock()

	// Everything below operates on immutable snapshots, outside the lock.
	// A group's key is built into one reused buffer and looked up without
	// becoming a string; only a new group allocates its key and tag map.
	groups := map[string]*selectGroup{}
	var ordered []*selectGroup
	var key []byte
	for _, sp := range spans {
		key = key[:0]
		for _, k := range gkeys {
			key = appendKeyTag(key, k, sp.tags[k])
		}
		g, ok := groups[string(key)]
		if !ok {
			gtags := make(map[string]string, len(gkeys))
			for _, k := range gkeys {
				gtags[k] = sp.tags[k]
			}
			g = &selectGroup{key: string(key), tags: gtags}
			groups[g.key] = g
			ordered = append(ordered, g)
		}
		g.runs = append(g.runs, runs[sp.lo:sp.hi]...)
	}
	slices.SortFunc(ordered, func(a, b *selectGroup) int { return strings.Compare(a.key, b.key) })
	return cols, strs, ordered, nil
}

// executeGroups is phase 2: aggregate each group, in the sorted group-key
// order, into its result series on the caller's goroutine. The context is
// checked before each group, so a cancelled query finishes the group in
// flight and starts no other. Compressed runs decode into one pooled
// arena, reset per group: executeGroup copies every value out, so nothing
// aliases the arena afterwards.
func (db *DB) executeGroups(ctx context.Context, q Query, cols []AggCol, strs []string, groups []*selectGroup, prof *selectProf) ([]Series, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	names := make([]string, len(cols))
	for ci, c := range cols {
		names[ci] = c.name()
	}
	a := arenaPool.Get().(*decodeArena)
	defer arenaPool.Put(a)
	out := make([]Series, 0, len(groups))
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A group whose runs all decode to no in-range row does not
		// surface: phase 1 admitted its chunks on their time bounds alone,
		// and the raw path would never have snapshotted them.
		a.reset()
		if materializeGroup(db.metrics, g, q, cols, len(strs), a, prof) {
			out = append(out, executeGroup(q, cols, names, strs, g))
		}
	}
	return out, nil
}

// executeGroup renders one result series from its snapshot runs. Every
// aggregate column folds into a partial of its own aggregate.
func executeGroup(q Query, cols []AggCol, names, strs []string, g *selectGroup) Series {
	res := Series{Name: q.Measurement, Tags: g.tags, Columns: names}
	switch {
	case !q.aggregated():
		res.Rows = emitRaw(g.runs, len(cols), strs, q.Limit)
	case q.Every > 0:
		startNS, _ := rangeNS(q.Start, q.End)
		res.Rows = windowAggregateRuns(g.runs, cols, strs, q.Every, startNS, q.Limit)
	default:
		vals := make([]*lineproto.Value, len(cols))
		for ci, c := range cols {
			// Aggregation pushdown: one partial per run, merged in run
			// order (count/sum/min/max/mean merge exactly; percentile
			// merges sorted value runs). A single-run group folds straight
			// into the final partial.
			p := c.partial()
			if len(g.runs) == 1 {
				foldView(&p, &g.runs[0], ci, 0, len(g.runs[0].ts), strs)
				p.finalize()
			} else {
				for ri := range g.runs {
					rp := c.partial()
					foldView(&rp, &g.runs[ri], ci, 0, len(g.runs[ri].ts), strs)
					rp.finalize()
					p.merge(&rp)
				}
			}
			vals[ci] = p.value()
		}
		t := q.Start
		if t.IsZero() {
			t = time.Unix(0, minFirstT(g.runs)).UTC()
		}
		res.Rows = append(res.Rows, Row{Time: t, Values: vals})
	}
	return res
}

// emitRaw merges the sorted runs by timestamp (stable: lower run index
// first on ties) and projects the ncols requested columns, stopping as
// soon as limit rows were produced.
func emitRaw(runs []runSnap, ncols int, strs []string, limit int) []Row {
	var out []Row
	emit := func(rs *runSnap, i int) bool {
		vals := make([]*lineproto.Value, ncols)
		any := false
		for ci := range vals {
			if c := &rs.cols[ci]; c.has(i) {
				v := c.At(i, strs)
				vals[ci] = &v
				any = true
			}
		}
		if any {
			out = append(out, Row{Time: time.Unix(0, rs.ts[i]).UTC(), Values: vals})
		}
		return limit > 0 && len(out) >= limit
	}
	if len(runs) == 1 {
		rs := &runs[0]
		for i := range rs.ts {
			if emit(rs, i) {
				break
			}
		}
		return out
	}
	idx := make([]int, len(runs))
	for {
		best := -1
		for ri := range runs {
			if idx[ri] >= len(runs[ri].ts) {
				continue
			}
			if best < 0 || runs[ri].ts[idx[ri]] < runs[best].ts[idx[best]] {
				best = ri
			}
		}
		if best < 0 {
			return out
		}
		i := idx[best]
		idx[best]++
		if emit(&runs[best], i) {
			return out
		}
	}
}

// minFirstT returns the earliest timestamp across the (non-empty, sorted)
// runs.
func minFirstT(runs []runSnap) int64 {
	min := int64(maxInt64)
	for ri := range runs {
		if ts := runs[ri].ts; len(ts) > 0 && ts[0] < min {
			min = ts[0]
		}
	}
	return min
}

// windowAggregateRuns is the partial-merging counterpart of the serial
// windowAggregate reference: each run is bucketed into aligned windows on
// its own (runs are sorted, so this is a single forward sweep), per-window
// per-column partials are filled by vectorized column folds (agg.go) and
// merged across runs in run order, and windows are emitted in time order,
// truncated at limit. Empty windows are skipped (InfluxDB fill(none)).
func windowAggregateRuns(runs []runSnap, cols []AggCol, strs []string, every time.Duration, startNS int64, limit int) []Row {
	w := every.Nanoseconds()
	if w <= 0 || len(runs) == 0 {
		return nil
	}
	minT := minFirstT(runs)
	if startNS == minInt64 {
		startNS = minT
	}
	first := minT
	if first < startNS {
		first = startNS
	}
	base := alignNS(first, w) // rows beyond the range end were already cut in phase 1

	// Single-run groups (the common GROUP BY hostname shape) need no
	// cross-run merge: windows arrive in order, rows fold straight into
	// the final partials and emission stops at limit — the window-side
	// counterpart of the raw Limit pushdown.
	if len(runs) == 1 {
		rs := &runs[0]
		var out []Row
		i := 0
		for i < len(rs.ts) {
			ws, j := windowAt(rs.ts, i, w, base)
			vals := make([]*lineproto.Value, len(cols))
			for ci, c := range cols {
				p := c.partial()
				foldView(&p, rs, ci, i, j, strs)
				p.finalize()
				vals[ci] = p.value()
			}
			out = append(out, Row{Time: time.Unix(0, ws).UTC(), Values: vals})
			if limit > 0 && len(out) >= limit {
				break
			}
			i = j
		}
		return out
	}

	// Multi-run groups: per-run per-window partials, merged across runs in
	// run order. Feeding rows of run k only after every row of runs <k
	// keeps the merge order fixed by the data.
	wins := map[int64][]partial{}
	for ri := range runs {
		rs := &runs[ri]
		i := 0
		for i < len(rs.ts) {
			ws, j := windowAt(rs.ts, i, w, base)
			parts, ok := wins[ws]
			if !ok {
				parts = make([]partial, len(cols))
				for ci, c := range cols {
					parts[ci] = c.partial()
				}
				wins[ws] = parts
			}
			for ci, c := range cols {
				rp := c.partial()
				foldView(&rp, rs, ci, i, j, strs)
				rp.finalize()
				parts[ci].merge(&rp)
			}
			i = j
		}
	}
	starts := make([]int64, 0, len(wins))
	for ws := range wins {
		starts = append(starts, ws)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if limit > 0 && len(starts) > limit {
		starts = starts[:limit]
	}
	out := make([]Row, 0, len(starts))
	for _, ws := range starts {
		parts := wins[ws]
		vals := make([]*lineproto.Value, len(cols))
		for ci := range parts {
			vals[ci] = parts[ci].value()
		}
		out = append(out, Row{Time: time.Unix(0, ws).UTC(), Values: vals})
	}
	return out
}

// windowAt returns the aligned window row i of the sorted ts falls into:
// its start, never before base, and the index of the first row past it.
func windowAt(ts []int64, i int, w, base int64) (ws int64, j int) {
	if ws = alignNS(ts[i], w); ws < base {
		ws = base
	}
	for j = i; j < len(ts) && ts[j] < ws+w; j++ {
	}
	return ws, j
}

// alignNS floors t to a multiple of w, mirroring InfluxDB window alignment
// (correct for negative timestamps too).
func alignNS(t, w int64) int64 {
	if t >= 0 {
		return t - t%w
	}
	return t - (w+t%w)%w
}
