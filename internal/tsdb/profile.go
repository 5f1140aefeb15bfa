package tsdb

// Per-query execution profiling (DESIGN.md §14). A selectProf rides the
// context into SelectContext and collects what the two-phase engine
// actually did: how many runs phase 1 admitted vs pruned on time bounds,
// how many compressed chunks phase 2 decoded, how many points were
// examined, whether the result came from the query cache, and the wall
// time of each phase. EXPLAIN ANALYZE (influxql.go) attaches one,
// executes the statement normally, and renders the counters next to the
// untouched result rows; the cluster coordinator (internal/cluster)
// appends replica choice and per-node timings on top.
//
// When no profile is attached — every ordinary query — the cost is one
// zero-allocation context lookup (the key is a zero-size type) and nil
// pointer tests on the phase boundaries; the per-run counters in
// snapshotSelect sit behind a single predictable branch.

import (
	"context"
	"time"

	"repro/internal/obs"
)

// The timed phases of one SelectContext call: index into
// selectProf.phaseNS, and the name of the span each one records.
const (
	phaseCache    = iota // cache probe
	phaseSnapshot        // run snapshot under the shard RLock
	phaseExecute         // decode + aggregation fan-out
	phaseTotal           // whole SelectContext call
	numPhases
)

var phaseSpanNames = [numPhases]string{
	phaseCache:    "tsdb.select.cache",
	phaseSnapshot: "tsdb.select.snapshot",
	phaseExecute:  "tsdb.select.execute",
	phaseTotal:    "tsdb.select",
}

// selectProf accumulates the execution profile of one SelectContext call.
// It is written by a single goroutine: snapshotSelect runs serially, and
// executeGroups pre-counts decode work before fanning out.
type selectProf struct {
	ShardsVisited  int   // lock domains consulted (1 per measurement)
	RunsScanned    int   // runs admitted into the snapshot
	RunsPruned     int   // runs skipped on time bounds
	ChunksDecoded  int   // compressed chunks decoded in phase 2
	PointsExamined int64 // rows snapshotted (raw) or resident in admitted chunks
	CacheHit       bool  // result served from the query cache

	phaseNS [numPhases]int64 // wall time per phase, written by phase.end
}

type profKey struct{}

// withProf attaches a profile collector to the context.
func withProf(ctx context.Context, p *selectProf) context.Context {
	return context.WithValue(ctx, profKey{}, p)
}

// profFrom returns the context's profile collector, or nil. Zero-size
// key, so the lookup allocates nothing on the hot path.
func profFrom(ctx context.Context) *selectProf {
	p, _ := ctx.Value(profKey{}).(*selectProf)
	return p
}

// phase is the one instrumentation point of a SelectContext phase: it
// feeds the trace span and the EXPLAIN ANALYZE profile from a single pair
// of clock reads, so the two can never disagree about how long a phase
// took. With a trace attached the span's own start/end instants are the
// clock and the profile receives their difference; with only a profile
// the phase reads the clock itself; with neither — every ordinary query —
// it reads no clock and touches nothing.
type phase struct {
	span  *obs.Span   // nil without a trace
	prof  *selectProf // nil without a profile
	idx   int
	start time.Time // set only for a profile without a trace
}

func beginPhase(tr *obs.Trace, prof *selectProf, idx int) phase {
	ph := phase{prof: prof, idx: idx}
	if tr != nil {
		ph.span = tr.Start(phaseSpanNames[idx])
	} else if prof != nil {
		ph.start = time.Now()
	}
	return ph
}

func (ph phase) end() {
	var ns int64
	if ph.span != nil {
		ns = ph.span.End()
	} else if ph.prof != nil {
		ns = int64(time.Since(ph.start))
	}
	if ph.prof != nil {
		ph.prof.phaseNS[ph.idx] = ns
	}
}
