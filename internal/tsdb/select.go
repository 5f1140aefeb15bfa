package tsdb

// The two-phase, lock-light query engine behind DB.SelectContext
// (DESIGN.md §6).
//
// Phase 1 (snapshotSelect) takes the shard lock of the queried measurement
// in *read* mode and only long enough to collect slice headers of the
// matching, already-sorted columnar runs (column.go, DESIGN.md §8) — the
// write path keeps every series sorted and never mutates a published
// backing array (see the series invariants in tsdb.go), so the headers
// stay valid after the lock is released. The time-range cut and, for raw
// queries, the row Limit are pushed into this phase: rows a query cannot
// return are never snapshotted.
//
// Phase 2 (executeGroups) buckets the runs by the group-by tag combination
// and runs filtering, window bucketing and aggregation outside any lock,
// fanning the groups out over a bounded worker pool
// (StoreOptions.QueryWorkersPerDB, StackConfig.QueryWorkers). Aggregates
// are computed as per-run partials (filled by the vectorized column folds
// in agg.go) merged in a fixed order, so the result is byte-identical no
// matter how many workers run — the serial engine is simply workers=1.

import (
	"context"
	"sort"
	"sync"
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
// colView per requested column (parallel to the resolved column list). A
// compressed run is snapshotted as its immutable chunk pointer instead
// (comp != nil, ts/cols empty); phase 2 decodes it into scratch-backed
// views (materializeSnap, compress.go) before aggregation starts.
type runSnap struct {
	ts   []int64
	cols []colView
	comp *compRun
}

// seriesRun is one matching series' snapshotted run.
type seriesRun struct {
	key  string // series key: deterministic ordering across map iterations
	tags map[string]string
	snap runSnap
}

// selectGroup is one result series in the making: every run whose tags
// project to the same group-by combination.
type selectGroup struct {
	tags map[string]string
	runs []runSnap
}

// hasComp reports whether any snapshotted run still needs decoding.
func (g *selectGroup) hasComp() bool {
	for i := range g.runs {
		if g.runs[i].comp != nil {
			return true
		}
	}
	return false
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
// Only the shard read lock is held, and only while slicing headers. The
// returned strs slice resolves interned string ids (append-only on the
// writer side, so the header stays valid outside the lock).
//
// prof, when non-nil (EXPLAIN ANALYZE, profile.go), counts the runs
// admitted vs pruned on time bounds and the rows examined; nil — every
// ordinary query — costs one predictable branch per run.
func (db *DB) snapshotSelect(q Query, prof *selectProf) ([]AggCol, []string, []*selectGroup, error) {
	startNS, endNS := rangeNS(q.Start, q.End)
	rawLimit := q.rawLimit()

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
	runs := make([]seriesRun, 0, len(m.series))
	for key, sr := range m.series {
		if !q.Filter.matches(sr.tags) {
			continue
		}
		for _, run := range sr.runs {
			if c := run.comp; c != nil {
				// Compressed run: the chunk header carries the time
				// bounds, the chunk itself is immutable — snapshotting is
				// one pointer. The precise range cut (and the discovery
				// that a bounds-overlapping run holds no row in range)
				// happens at decode time in phase 2.
				if c.MinTS > endNS || c.MaxTS < startNS {
					if prof != nil {
						prof.RunsPruned++
					}
					continue
				}
				if prof != nil {
					prof.RunsScanned++
					prof.PointsExamined += int64(c.N)
				}
				runs = append(runs, seriesRun{key: key, tags: sr.tags, snap: runSnap{comp: c}})
				continue
			}
			lo := sort.Search(len(run.ts), func(i int) bool { return run.ts[i] >= startNS })
			hi := sort.Search(len(run.ts), func(i int) bool { return run.ts[i] > endNS })
			if lo >= hi {
				if prof != nil {
					prof.RunsPruned++
				}
				continue
			}
			if prof != nil {
				prof.RunsScanned++
			}
			if rawLimit > 0 && hi-lo > rawLimit {
				hi = lo + rawLimit
			}
			if prof != nil {
				prof.PointsExamined += int64(hi - lo)
			}
			snap := runSnap{ts: run.ts[lo:hi], cols: make([]colView, len(cols))}
			for ci := range cols {
				if rci := run.colByName(cols[ci].Field); rci >= 0 {
					rc := &run.cols[rci]
					snap.cols[ci] = colView{ok: true, off: lo, present: rc.Present, Values: rc.Slice(lo, hi)}
				}
			}
			runs = append(runs, seriesRun{key: key, tags: sr.tags, snap: snap})
		}
	}
	sh.mu.RUnlock()

	// Everything below operates on immutable snapshots, outside the lock.
	// The sort must be stable: runs of one series keep their creation order,
	// so timestamp ties across runs resolve in insertion order.
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].key < runs[j].key })
	groups := map[string]*selectGroup{}
	var order []string
	for _, r := range runs {
		gtags := map[string]string{}
		for _, k := range q.GroupByTags {
			gtags[k] = r.tags[k]
		}
		key := seriesKey(gtags)
		g, ok := groups[key]
		if !ok {
			g = &selectGroup{tags: gtags}
			groups[key] = g
			order = append(order, key)
		}
		g.runs = append(g.runs, r.snap)
	}
	sort.Strings(order)
	ordered := make([]*selectGroup, len(order))
	for i, key := range order {
		ordered[i] = groups[key]
	}
	return cols, strs, ordered, nil
}

// executeGroups is phase 2: aggregate each group into its result series,
// fanning out across the DB's bounded worker pool. Group i always lands in
// slot i, so the output order (sorted group keys) is deterministic. The
// context is checked between group dispatches and by each pool worker
// before it starts aggregating, so cancellation is observed at
// run-aggregation-task granularity: the task in flight finishes, the rest
// never start.
func (db *DB) executeGroups(ctx context.Context, q Query, cols []AggCol, strs []string, groups []*selectGroup, prof *selectProf) ([]Series, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	names := make([]string, len(cols))
	for ci, c := range cols {
		names[ci] = c.name()
	}
	if prof != nil {
		// Count the decode work up front, before the fan-out: every
		// compressed run admitted by phase 1 is decoded by
		// materializeGroup (one timestamp chunk plus one per column), so
		// the profile needs no atomics inside the workers.
		for _, g := range groups {
			for i := range g.runs {
				if c := g.runs[i].comp; c != nil {
					prof.ChunksDecoded += 1 + len(c.Cols)
				}
			}
		}
	}
	out := make([]Series, len(groups))
	// drop[i] marks a group whose runs all decoded to zero in-range rows:
	// phase 1 admitted its compressed runs on chunk time bounds alone, but
	// the raw path would never have snapshotted (or grouped) them, so the
	// group must not surface. The filter below keeps slot order, so the
	// output stays deterministic.
	drop := make([]bool, len(groups))
	run := func(i int) {
		g := groups[i]
		if g.hasComp() {
			// Decode compressed runs into a pooled per-worker scratch
			// arena. The arena is recycled only after executeGroup is done
			// with the views; the emitted Series copies every value out,
			// so nothing aliases the arena afterwards.
			a := arenaPool.Get().(*decodeArena)
			a.reset()
			if materializeGroup(g, q, cols, len(strs), a) {
				out[i] = executeGroup(q, cols, names, strs, g)
			} else {
				drop[i] = true
			}
			arenaPool.Put(a)
			return
		}
		out[i] = executeGroup(q, cols, names, strs, g)
	}
	filter := func() []Series {
		kept := out[:0]
		for i := range out {
			if !drop[i] {
				kept = append(kept, out[i])
			}
		}
		return kept
	}
	if len(groups) == 1 || cap(db.qsem) <= 1 {
		for i := range groups {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			run(i)
		}
		return filter(), nil
	}
	// Bounded fan-out: a group runs on a pool slot when one is free and
	// inline otherwise, so a query never queues behind itself and the
	// goroutine count stays capped across concurrent Selects.
	var wg sync.WaitGroup
	for i := range groups {
		if ctx.Err() != nil {
			break
		}
		select {
		case db.qsem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-db.qsem }()
				if ctx.Err() != nil {
					return
				}
				run(i)
			}(i)
		default:
			run(i)
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return filter(), nil
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
	// keeps the merge order fixed and the result independent of worker
	// scheduling.
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
