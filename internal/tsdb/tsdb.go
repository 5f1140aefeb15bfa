// Package tsdb implements the time-series database back-end of the LIKWID
// Monitoring Stack.
//
// The paper (Sect. III-C) uses InfluxDB: a time-series store that accepts
// floating-point metrics as well as string events, written via an HTTP
// endpoint in the line protocol and read back with InfluxQL queries. This
// package is a from-scratch, stdlib-only replacement that keeps the parts of
// the interface LMS depends on:
//
//   - a Store holding multiple named databases (the router duplicates job
//     metrics into per-user databases),
//   - series organized by measurement + tag set, floats and strings mixed,
//   - time-range queries with aggregation, GROUP BY time(...) windows and
//     GROUP BY tag,
//   - an InfluxDB-compatible HTTP API (/write, /query, /ping) in http.go and
//     an InfluxQL subset in influxql.go,
//   - a first-class query API (querier.go, DESIGN.md §7): the Querier
//     interface with a LocalQuerier for in-process stores and the HTTP
//     Client for remote ones, returning byte-identical results.
//
// # Sharding
//
// A DB is partitioned into N independent shards, each guarded by its own
// lock. Points are routed to a shard by a hash of their measurement name, so
// a measurement lives wholly inside one shard and all query semantics are
// unaffected; writers and readers touching different measurements proceed in
// parallel. N defaults to GOMAXPROCS and is configurable with
// StoreOptions.ShardsPerDB: a database is only ever built by its Store.
//
// The one write door is WriteBatchContext: it validates the whole batch,
// splits it per shard, and inside each shard appends consecutive points of
// the same series into a columnar run builder (column.go, DESIGN.md §8) —
// one sorted timestamp column plus one typed value column per field, no
// per-point field map allocation. Writes keep every series sorted
// (out-of-order batches open new runs that compaction merges into freshly
// allocated columns), so published point runs are immutable to readers.
//
// # Read path
//
// DB.SelectContext runs on a two-phase, lock-light engine (select.go,
// DESIGN.md §6): phase 1 holds the shard *read* lock only while
// snapshotting slice headers of the matching columnar runs — with the time
// range and, for raw queries, the row Limit pushed into the snapshot — and
// phase 2 buckets, groups and aggregates entirely outside the lock, fanning
// result groups out over a bounded worker pool
// (StoreOptions.QueryWorkersPerDB) and merging per-run partial aggregates
// (agg.go) computed by vectorized sweeps over the typed columns. A small
// TTL'd query-result cache (cache.go) absorbs the dashboard viewer's
// repeated panel refreshes and is invalidated per measurement on write.
//
// # Durability
//
// A store opened with OpenStore and a data directory survives restarts
// (persist.go and the durable subpackage, DESIGN.md §9), mirroring the
// InfluxDB storage engine the paper's stack persists into: a write
// appends each batch to a segmented, CRC32-framed write-ahead log before
// acknowledging (fsync per batch, on an interval, or off), checkpoints
// serialize the sealed columnar runs to immutable on-disk blocks and
// truncate the log, and recovery loads the newest checkpoint and replays
// the WAL tail through the ordinary columnar write path — surviving a
// torn final record by truncating at the first bad frame. Close writes a
// final checkpoint; retention sweeps delete expired on-disk state.
package tsdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/tsdb/durable"
)

// Common errors returned by the storage layer.
var (
	ErrNoDatabase    = errors.New("tsdb: database does not exist")
	ErrNoMeasurement = errors.New("tsdb: measurement does not exist")
)

// StoreOptions configure a Store: pass them to OpenStore, or set the
// per-database ones on a NewStore store before it starts serving traffic.
type StoreOptions struct {
	// ShardsPerDB is the shard count of every database the store opens
	// (0 = GOMAXPROCS).
	ShardsPerDB int
	// QueryWorkersPerDB bounds the Select aggregation fan-out of every
	// database the store opens (0 = GOMAXPROCS).
	QueryWorkersPerDB int
	// CompressAfter enables background chunk compression (DESIGN.md §13)
	// on every database the store opens: sealed runs idle for this long
	// are re-encoded into Gorilla-style compressed chunks. 0 keeps runs
	// sealed forever.
	CompressAfter time.Duration
	// Durability enables the durable storage engine (persist.go, DESIGN.md
	// §9) when its Dir is set. OpenStore creates and locks the directory
	// and recovers the databases in it; set on a NewStore store (the
	// faultfs sweeps), databases open on Durability.FS alone.
	Durability Durability
}

// Store is a collection of named databases, the equivalent of one InfluxDB
// server instance.
type Store struct {
	StoreOptions

	// dirLock holds the flock on the data directory of a durable store.
	dirLock *os.File

	// metrics is the observability bundle (metrics.go, DESIGN.md §10),
	// created with the store and attached to every database it opens.
	metrics *Metrics

	mu     sync.RWMutex
	dbs    map[string]*DB
	closed bool // set by Close/Abort; durable opens are refused after
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	s := &Store{dbs: make(map[string]*DB)}
	s.metrics = newMetrics(s)
	return s
}

// CreateDatabase creates (or returns the existing) database with that name
// on an in-memory store, where that cannot fail. Callers that may hold a
// durable store use OpenDatabase and handle the error; CreateDatabase
// panics on it rather than hand out a database that persists nothing.
func (s *Store) CreateDatabase(name string) *DB {
	db, err := s.OpenDatabase(name)
	if err != nil {
		panic(fmt.Sprintf("tsdb: CreateDatabase(%q): %v (use OpenDatabase on a durable store)", name, err))
	}
	return db
}

// DB returns the database with that name, or nil.
func (s *Store) DB(name string) *DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dbs[name]
}

// DropDatabase removes a database and all its contents, including its
// on-disk directory when the store is durable. The store lock is held
// across the close and directory removal: a concurrent auto-create of
// the same name must not re-open the directory only to have its live
// WAL deleted from under it. The close waits for a checkpoint in flight,
// so nothing writes into the directory after it is gone.
func (s *Store) DropDatabase(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.dbs[name]
	delete(s.dbs, name)
	if db == nil {
		return
	}
	db.Abort()
	if db.dur != nil {
		_ = os.RemoveAll(db.dur.dir)
	}
}

// Databases lists database names in sorted order.
func (s *Store) Databases() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DB is one named time-series database, partitioned into measurement-hashed
// shards (see the package comment). Only its Store builds one
// (Store.openLocked), fully wired before anyone else can see it.
type DB struct {
	name      string
	shards    []*shard
	retention atomic.Int64 // nanoseconds; 0 = keep forever
	newest    atomic.Int64 // unix ns of the newest point ever written
	lastWrite atomic.Int64 // wall-clock unix ns of the last applied batch

	// dur is the durable storage engine (persist.go, DESIGN.md §9); nil
	// keeps the database in memory only. closed flips once on
	// Close/Abort; durable writes check it.
	dur    *durability
	closed atomic.Bool

	// metrics is the owning store's observability bundle (metrics.go).
	metrics *Metrics

	// Background maintenance (obs.Job; Close and Abort stop and wait for
	// both). retJob sweeps retention (SetRetention), so expired data ages
	// out of an idle database too; compJob re-encodes sealed runs that have
	// gone idle into compressed chunks (SetCompressAfter, compress.go).
	retJob  obs.Job
	compJob obs.Job

	// Read path (select.go, cache.go). qsem is the shared slot pool whose
	// capacity bounds the phase-2 fan-out of a query.
	qsem   chan struct{}
	qcache queryCache
	// measGens holds one invalidation generation counter per measurement
	// (*atomic.Uint64); globalGen invalidates everything (retention sweeps,
	// DropBefore).
	measGens  sync.Map
	globalGen atomic.Uint64
}

// shard is one lock domain of a DB. A measurement is wholly contained in
// one shard.
type shard struct {
	mu           sync.RWMutex
	measurements map[string]*measurement
	bld          runBuilder // reusable columnar pending buffer, guarded by mu
	// key holds the series key of the block the builder is accumulating,
	// nextKey the one being built for the point at hand; reused, guarded by mu.
	key, nextKey []byte
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// ShardCount returns the number of lock domains.
func (db *DB) ShardCount() int { return len(db.shards) }

// shardFor routes a measurement name to its shard.
func (db *DB) shardFor(measurement string) *shard {
	return db.shards[db.shardIndex(measurement)]
}

// FNV-1a parameters (inlined so the hot write path hashes the measurement
// name without the []byte conversion and hasher allocation of hash/fnv).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func (db *DB) shardIndex(measurement string) int {
	return shardIndex(measurement, len(db.shards))
}

// shardIndex hashes a measurement name, as text or as the bytes of a
// frame, onto one of n shards.
func shardIndex[S string | []byte](measurement S, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for i := 0; i < len(measurement); i++ {
		h ^= uint32(measurement[i])
		h *= fnvPrime32
	}
	return int(h % uint32(n))
}

// sweepPeriod is how often a window-driven maintenance job runs: every
// half window, so work is done within ~1.5x the window of becoming due,
// clamped to [10ms, 1s] (tests use tiny windows). window <= 0 halts it.
func sweepPeriod(window time.Duration) time.Duration {
	if window <= 0 {
		return 0
	}
	return min(max(window/2, 10*time.Millisecond), time.Second)
}

// SetRetention configures the retention window: points older than d
// relative to the newest inserted point are dropped by a background job
// (sweepPeriod; stopped by Close) — the one trigger,
// whether the database is ingesting or idle. The cutoff anchor is the
// newest point advanced by the wall-clock time elapsed since the last
// write — an idle database keeps aging as if its stream clock kept
// running — rather than the wall clock outright, so historical data
// (simulation dumps, backfills, the 2017-era corpora of this repo) keeps
// its retention window anchored at its own newest point. Zero disables
// pruning and halts the job.
func (db *DB) SetRetention(d time.Duration) {
	db.retention.Store(int64(d))
	db.retJob.Every(sweepPeriod(d), db.pruneTick)
}

// pruneTick is the timed retention sweep (see SetRetention).
func (db *DB) pruneTick(context.Context) error {
	ret := db.retention.Load()
	if ret <= 0 {
		return nil
	}
	anchor := db.newest.Load()
	if anchor == 0 {
		return nil // nothing ever written or recovered
	}
	if idle := time.Now().UnixNano() - db.lastWrite.Load(); idle > 0 {
		anchor += idle
	}
	db.pruneNow(anchor - ret)
	return nil
}

// SetCompressAfter configures the compressed run state (DESIGN.md §13):
// a background job re-encodes sealed runs that have gone d without a
// mutation into Gorilla-style compressed chunks (compress.go), cutting
// their resident footprint several-fold while queries stay
// byte-identical. Zero disables the compactor and halts the job;
// already-compressed runs stay compressed.
func (db *DB) SetCompressAfter(d time.Duration) {
	db.compJob.Every(sweepPeriod(d), func(context.Context) error {
		db.compressNow(time.Now().UnixNano()-int64(d), true)
		return nil
	})
}

// Compress immediately compresses every run, including each series'
// building run, regardless of idle time. Exported for tooling, benchmarks
// and tests ("freeze the resident set now"); production databases
// compress in the background via SetCompressAfter, which only takes
// sealed runs. It returns the number of runs compressed.
func (db *DB) Compress() int { return db.compressNow(maxInt64, false) }

// compCandidate is one sealed run captured for out-of-lock encoding: the
// slice headers are a consistent snapshot (taken under the shard RLock),
// gen detects mutations between capture and commit.
type compCandidate struct {
	m    *measurement
	sr   *series
	run  *colRun
	gen  uint64
	ts   []int64
	cols []col
}

// compressNow re-encodes runs whose last mutation is <= cutoffNS. With
// sealedOnly (the background compactor), each series' newest run — the
// building run, where in-order appends and same-timestamp rewrites land —
// is left raw so the write path's run layout is unchanged by when the
// compactor happens to fire. Encoding runs outside any lock against
// captured slice headers (the same immutability contract Select's phase 1
// relies on); each result is then committed under a short write lock only
// if the run is still published and unmutated — a stale encode is simply
// dropped.
func (db *DB) compressNow(cutoffNS int64, sealedOnly bool) int {
	total := 0
	for _, sh := range db.shards {
		var cands []compCandidate
		sh.mu.RLock()
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				for i, run := range sr.runs {
					if sealedOnly && i == len(sr.runs)-1 {
						continue
					}
					if run.comp != nil || len(run.ts) == 0 || run.modNS > cutoffNS {
						continue
					}
					cands = append(cands, compCandidate{
						m: m, sr: sr, run: run, gen: run.gen,
						ts:   run.ts,
						cols: append([]col(nil), run.cols...),
					})
				}
			}
		}
		sh.mu.RUnlock()
		for i := range cands {
			c := &cands[i]
			comp := compressColumns(c.ts, c.cols)
			sh.mu.Lock()
			if c.run.gen == c.gen && c.run.comp == nil && runPublished(c.m, c.sr, c.run) {
				c.run.comp = comp
				c.run.ts = nil
				c.run.cols = nil
				total++
			}
			sh.mu.Unlock()
		}
	}
	return total
}

// runPublished reports whether run is still an element of sr.runs and sr
// is still the series the measurement maps to (compaction, pruning and
// retention may have replaced either while the encoder ran).
func runPublished(m *measurement, sr *series, run *colRun) bool {
	if got, ok := m.series[seriesKey(sr.tags)]; !ok || got != sr {
		return false
	}
	for _, r := range sr.runs {
		if r == run {
			return true
		}
	}
	return false
}

type measurement struct {
	name   string
	series map[string]*series
	fields map[string]lineproto.ValueKind
	names  map[string]string // interned field-name strings (one per schema field)
	strs   strTable          // interned string field values (column.go)
}

// internField returns the canonical (interned) copy of a field name,
// registering it in the measurement schema on first sight. Column headers
// across every run and series of the measurement then share one string
// allocation per field name instead of retaining per-batch parse strings.
func (m *measurement) internField(name string, kind lineproto.ValueKind) string {
	if canon, ok := m.names[name]; ok {
		return canon
	}
	m.names[name] = name
	m.fields[name] = kind
	return name
}

// fieldNames lists the schema's field keys, sorted. The caller holds the
// shard lock (either mode).
func (m *measurement) fieldNames() []string {
	keys := make([]string, 0, len(m.fields))
	for k := range m.fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// series holds the point runs of one tag set, log-structured: a list of
// individually sorted columnar runs (column.go), ordered by creation.
// Invariants the lock-light read path (select.go) relies on:
//
//   - every run's ts column is sorted,
//   - a backing array that has been published in runs is never reordered
//     or overwritten in place: in-order writes append to the newest run's
//     columns (growing past len is invisible to readers holding shorter
//     slice headers), presence bitmaps are copy-on-write, out-of-order
//     writes start a new run, compaction merges runs into freshly
//     allocated columns, pruning copies survivors, and the
//     same-timestamp rewrite path swaps whole value arrays.
//
// A reader that snapshotted column sub-slices under the shard RLock may
// therefore keep reading them after releasing the lock. Compaction keeps
// run sizes roughly geometric, so a series holds O(log n) runs and the
// write amplification of out-of-order ingest stays O(log n) per point
// instead of the O(n) a single always-sorted array would cost.
type series struct {
	tags map[string]string // immutable after creation
	runs []*colRun
}

// totalPoints is the row count across all runs.
func (sr *series) totalPoints() int {
	n := 0
	for _, run := range sr.runs {
		n += run.rows()
	}
	return n
}

// seriesKey builds the canonical identity of a tag set.
func seriesKey(tags map[string]string) string {
	if len(tags) == 0 {
		return ""
	}
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(tags[k])
	}
	return b.String()
}

// WriteBatchContext is the write door of a database: the whole batch is
// validated, split per shard, and written with one lock acquisition per
// touched shard. Points without a timestamp share one server-side
// timestamp, mirroring InfluxDB. On a durable database the batch is
// appended to the write-ahead log — fsynced per the configured policy —
// before it is applied and acknowledged (persist.go). An invalid point
// (durable.ErrInvalidPoint: what Point.Validate refuses) refuses the
// whole batch. A context carrying a trace (obs.WithTrace) gets spans for
// the WAL append (which includes the fsync wait under the per-batch
// policy) and the in-memory apply. The context is not used for
// cancellation — a batch appended to the WAL is already acknowledged
// territory.
//
// The batch is encoded into its frame (durable.AppendBatch, points without
// a timestamp resolved to now) and written as one: the frame is what the
// WAL logs and what the shards ingest, so a batch that arrives as points
// and one that arrives as a frame (Handler.handleWrite's frame door, WAL
// replay) take the same path from here on. An in-memory database pays the
// encode too: it is cheaper than the per-point key sorting the frame's
// order makes unnecessary, and it buys one apply path instead of two.
func (db *DB) WriteBatchContext(ctx context.Context, pts []lineproto.Point) error {
	if len(pts) == 0 {
		return nil
	}
	bufp := batchBufPool.Get().(*[]byte)
	frame := durable.AppendBatch((*bufp)[:0], pts, time.Now().UnixNano())
	fb, err := db.checkFrame(frame)
	if err == nil {
		err = db.writeFrame(ctx, fb)
	}
	*bufp = frame[:0]
	batchBufPool.Put(bufp)
	return err
}

// batchBufPool recycles frame encode buffers across concurrent writers.
var batchBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// pointRef locates one point of a checked frame: where it starts, and the
// shard its measurement hashes to.
type pointRef struct{ off, shard int }

// frameBatch is a batch frame that passed the cursor's strict pass —
// structure and Point.Validate's rules, the whole frame before anything is
// logged or applied, so a batch stays all-or-nothing — with its points
// indexed by shard. It is the only form in which a batch reaches the WAL
// and the shards, and only checkFrame makes one.
type frameBatch struct {
	frame []byte
	cur   durable.BatchCursor // walked once to check, then re-seated per point by the shards
	refs  []pointRef
	multi bool // the points hash to more than one shard
}

var frameBatchPool = sync.Pool{New: func() any { return new(frameBatch) }}

// checkFrame validates frame for db and indexes its points. A frame that
// holds an invalid point counts as a refused batch (lms_dropped_points_total);
// one that is not a frame at all has no points to count.
func (db *DB) checkFrame(frame []byte) (*frameBatch, error) {
	fb := frameBatchPool.Get().(*frameBatch)
	fb.frame, fb.refs, fb.multi = frame, fb.refs[:0], false
	cur := &fb.cur
	cur.Reset(frame)
	// A point takes at least 16 bytes, which bounds what a declared count
	// can reserve here.
	fb.refs = slices.Grow(fb.refs, min(cur.Len(), len(frame)/16))
	var runMeas []byte
	runIdx := -1
	for cur.Next() {
		// Batches are runs of one measurement (one agent flush): hash on
		// run boundaries only.
		if runIdx < 0 || !bytes.Equal(cur.Measurement, runMeas) {
			runMeas = cur.Measurement
			runIdx = shardIndex(runMeas, len(db.shards))
		}
		fb.refs = append(fb.refs, pointRef{cur.Offset, runIdx})
		fb.multi = fb.multi || runIdx != fb.refs[0].shard
	}
	if err := cur.Err(); err != nil {
		if errors.Is(err, durable.ErrInvalidPoint) {
			db.noteDrop(cur.Len())
		}
		fb.release()
		return nil, err
	}
	return fb, nil
}

// release returns fb to the pool, dropping its views of the frame.
func (fb *frameBatch) release() {
	fb.frame = nil
	fb.cur.Reset(nil)
	frameBatchPool.Put(fb)
}

// writeFrame is the one write path: on a durable database the frame is
// appended to the write-ahead log — fsynced per the configured policy —
// before it is applied and acknowledged (persist.go). It consumes fb.
func (db *DB) writeFrame(ctx context.Context, fb *frameBatch) error {
	defer fb.release()
	n := len(fb.refs)
	if n == 0 {
		return nil
	}
	if db.dur != nil {
		if db.closed.Load() {
			db.noteDrop(n)
			return ErrDBClosed
		}
		if err := db.dur.writeDurable(ctx, db, fb); err != nil {
			db.noteDrop(n)
			return err
		}
		db.noteIngest(n)
		return nil
	}
	sp := obs.TraceFrom(ctx).Start("tsdb.apply").AttrInt("points", int64(n))
	db.applyFrame(fb)
	sp.End()
	db.noteIngest(n)
	return nil
}

// applyFrame inserts a checked frame into the in-memory columnar state,
// one lock acquisition per touched shard. It is the whole write path for
// in-memory databases and the post-WAL half for durable ones (both live
// writes and recovery replay). The frame carries resolved timestamps, so
// replay reproduces this state exactly; the wall clock only stamps the
// idle clocks of the database and its runs.
func (db *DB) applyFrame(fb *frameBatch) {
	if len(fb.refs) == 0 {
		return
	}
	nowNS := time.Now().UnixNano()
	db.lastWrite.Store(nowNS)
	if !fb.multi {
		idx := fb.refs[0].shard
		db.shards[idx].writeFrame(db, fb, idx, nowNS)
		return
	}
	for idx, sh := range db.shards {
		for _, ref := range fb.refs {
			if ref.shard == idx {
				sh.writeFrame(db, fb, idx, nowNS)
				break
			}
		}
	}
}

// writeFrame inserts the points of fb that belong to shard idx under one
// lock acquisition, straight from the frame's bytes: the measurement is
// compared against the previous point's, the series key is built from the
// cursor's ascending tags into a reused scratch and looked up without
// becoming a string, field names and string values are resolved through
// the measurement's intern tables, and values go into the shard's reusable
// columnar builder (column.go) by kind. Nothing is allocated per point of
// a known series; a tag map is built when a series is first seen.
// Consecutive points of the same series are committed per series run:
//
//   - in-order blocks (the agent hot path) bulk-append onto the newest
//     run's columns,
//   - a block whose timestamps exactly rewrite the newest run merges
//     field-by-field with last-write-wins (InfluxDB duplicate-point
//     semantics) instead of opening a run and paying compaction,
//   - anything else opens a new run and compacts similar-sized runs.
func (sh *shard) writeFrame(db *DB, fb *frameBatch, idx int, nowNS int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	var (
		curM *measurement
		curS *series
	)
	cur := &fb.cur
	b := &sh.bld
	b.reset()
	commit := func() {
		if curS == nil || len(b.ts) == 0 {
			return
		}
		b.finish()
		if n := len(curS.runs); n > 0 {
			last := curS.runs[n-1]
			if c := last.comp; c != nil {
				// A compressed run is immutable. The one mutation worth
				// paying a decode for is the exact same-timestamp rewrite
				// (the dashboard upsert pattern): decompress, merge
				// last-write-wins, recompress, swap the chunk pointer.
				// Anything else opens a new run next to it.
				if len(b.ts) == c.N && b.ts[0] == c.MinTS && b.ts[len(b.ts)-1] == c.MaxTS {
					if raw, err := decompress(c, len(curM.strs.vals)); err == nil && b.tsEqual(raw.ts) {
						raw.rewriteBlock(b, curM)
						last.comp = compressRun(raw)
						last.gen++
						last.modNS = nowNS
						b.reset()
						return
					}
				}
			} else if m := len(last.ts); m > 0 {
				// The exact-match check precedes the in-order check: a
				// run whose timestamps are all equal (e.g. a single
				// point) satisfies both, and re-writing it must upsert,
				// not accumulate duplicates.
				if b.tsEqual(last.ts) {
					// Same-timestamp rewrite: update the run's columns
					// copy-on-write instead of opening a run and paying
					// compaction (EXPERIMENTS.md, experiment O3).
					last.rewriteBlock(b, curM)
					last.gen++
					last.modNS = nowNS
					b.reset()
					return
				}
				if last.ts[m-1] <= b.ts[0] && !pastSparseRollLimit(last, b) {
					// In-order arrival (the hot path): extend the newest
					// run's columns with one bulk append per field.
					last.appendBlock(b, curM)
					last.gen++
					last.modNS = nowNS
					b.reset()
					return
				}
			}
		}
		// Out-of-order arrival: the builder's arrays become a new run, then
		// runs of similar size are compacted so the run count stays
		// logarithmic. Merging allocates fresh columns (decompressing a
		// compressed operand first), so readers holding snapshots of the
		// old runs are unaffected.
		nr := b.toRun()
		nr.modNS = nowNS
		curS.runs = append(curS.runs, nr)
		b.handoff()
		for n := len(curS.runs); n >= 2 && curS.runs[n-2].rows() <= 2*curS.runs[n-1].rows(); n = len(curS.runs) {
			ra, err := curS.runs[n-2].rawRun(len(curM.strs.vals))
			if err != nil {
				noteDecodeError(err)
				break
			}
			rb, err := curS.runs[n-1].rawRun(len(curM.strs.vals))
			if err != nil {
				noteDecodeError(err)
				break
			}
			merged := mergeRuns(curM, ra, rb)
			merged.modNS = nowNS
			curS.runs = append(curS.runs[:n-2], merged)
		}
	}

	newest := int64(minInt64)
	for _, ref := range fb.refs {
		if ref.shard != idx {
			continue
		}
		if !cur.Seek(ref.off) {
			// checkFrame accepted these very bytes; they changed under us.
			panic(fmt.Sprintf("tsdb: checked frame no longer reads: %v", cur.Err()))
		}
		if curM == nil || string(cur.Measurement) != curM.name {
			commit()
			if curM != nil {
				db.measGen(curM.name).Add(1)
			}
			curS = nil
			m, ok := sh.measurements[string(cur.Measurement)]
			if !ok {
				m = &measurement{
					name:   string(cur.Measurement),
					series: make(map[string]*series),
					fields: make(map[string]lineproto.ValueKind),
					names:  make(map[string]string),
				}
				sh.measurements[m.name] = m
			}
			curM = m
		}
		key := sh.nextKey[:0]
		for i, t := range cur.Tags {
			if i > 0 {
				key = append(key, ',')
			}
			key = append(key, t.Key...)
			key = append(key, '=')
			key = append(key, t.Value...)
		}
		sh.nextKey = key
		if curS == nil || !bytes.Equal(key, sh.key) {
			commit()
			sh.key, sh.nextKey = key, sh.key
			sr, ok := curM.series[string(key)]
			if !ok {
				tags := make(map[string]string, len(cur.Tags))
				for _, t := range cur.Tags {
					tags[string(t.Key)] = string(t.Value)
				}
				sr = &series{tags: tags}
				curM.series[string(key)] = sr
			}
			curS = sr
		}
		b.addPoint(curM, cur.Fields, cur.TimeNS)
		newest = max(newest, cur.TimeNS)
	}
	commit()
	// Cached query results are invalidated per run of a measurement, once
	// its rows are in and before the lock is released: a reader that sees
	// the new generation takes the lock after this writer and finds the
	// rows (duplicate bumps for non-adjacent repeats are harmless).
	db.measGen(curM.name).Add(1)

	// Publish the newest timestamp for retention sweeps (atomic max).
	for {
		cur := db.newest.Load()
		if newest <= cur || db.newest.CompareAndSwap(cur, newest) {
			break
		}
	}
}

// pruneNow sweeps every shard with the given cutoff. A sweep that
// removed rows invalidates every cached query result (an empty sweep
// must not flush unrelated entries) and, on a durable database,
// schedules a checkpoint so the expired rows leave the disk too.
func (db *DB) pruneNow(beforeNS int64) {
	dropped := false
	for _, sh := range db.shards {
		sh.mu.Lock()
		dropped = sh.pruneLocked(beforeNS) || dropped
		sh.mu.Unlock()
	}
	if !dropped {
		return
	}
	db.globalGen.Add(1)
	if db.dur != nil {
		db.dur.noteRetentionDrop()
	}
}

// pruneLocked drops rows older than beforeNS and reports whether anything
// was removed.
func (sh *shard) pruneLocked(beforeNS int64) bool {
	anyDropped := false
	nowNS := time.Now().UnixNano()
	for mname, m := range sh.measurements {
		for key, sr := range m.series {
			changed := false
			kept := sr.runs[:0:0]
			for _, run := range sr.runs {
				if c := run.comp; c != nil {
					// Whole-run decisions come from the chunk header; only
					// a partially expired run pays a decode (and is left
					// sealed — the compressor re-compresses it later).
					switch {
					case c.MinTS >= beforeNS:
						kept = append(kept, run)
					case c.MaxTS < beforeNS:
						changed = true
					default:
						raw, err := decompress(c, len(m.strs.vals))
						if err != nil {
							noteDecodeError(err)
							kept = append(kept, run) // keep data over dropping it
							continue
						}
						idx := sort.Search(len(raw.ts), func(i int) bool { return raw.ts[i] >= beforeNS })
						nr := raw.sliceRun(idx, len(raw.ts))
						nr.modNS = nowNS
						kept = append(kept, nr)
						changed = true
					}
					continue
				}
				idx := sort.Search(len(run.ts), func(i int) bool { return run.ts[i] >= beforeNS })
				switch {
				case idx == 0:
					kept = append(kept, run)
				case idx == len(run.ts):
					changed = true
				default:
					// Copy the survivors: readers may still hold snapshots
					// of the old backing arrays.
					nr := run.sliceRun(idx, len(run.ts))
					nr.modNS = nowNS
					kept = append(kept, nr)
					changed = true
				}
			}
			if changed {
				sr.runs = kept
				anyDropped = true
			}
			if len(sr.runs) == 0 {
				delete(m.series, key)
			}
		}
		if len(m.series) == 0 {
			delete(sh.measurements, mname)
		}
	}
	return anyDropped
}

// DropBefore removes all points older than t from every series.
func (db *DB) DropBefore(t time.Time) {
	db.pruneNow(t.UnixNano())
}

// Measurements lists measurement names in sorted order, merged across
// shards.
func (db *DB) Measurements() []string {
	var names []string
	for _, sh := range db.shards {
		sh.mu.RLock()
		for n := range sh.measurements {
			names = append(names, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// FieldKeys lists the field keys seen for a measurement, sorted.
func (db *DB) FieldKeys(measurement string) []string {
	sh := db.shardFor(measurement)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.measurements[measurement]
	if !ok {
		return nil
	}
	return m.fieldNames()
}

// TagKeys lists tag keys across all series of a measurement, sorted.
func (db *DB) TagKeys(measurement string) []string {
	sh := db.shardFor(measurement)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.measurements[measurement]
	if !ok {
		return nil
	}
	set := map[string]struct{}{}
	for _, sr := range m.series {
		for k := range sr.tags {
			set[k] = struct{}{}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TagValues lists the distinct values of one tag key over a measurement.
// With measurement == "" it scans all measurements across all shards (used
// by the dashboard agent to discover the hosts participating in a job).
func (db *DB) TagValues(meas, key string) []string {
	set := map[string]struct{}{}
	collect := func(m *measurement) {
		for _, sr := range m.series {
			if v, ok := sr.tags[key]; ok {
				set[v] = struct{}{}
			}
		}
	}
	if meas == "" {
		for _, sh := range db.shards {
			sh.mu.RLock()
			for _, m := range sh.measurements {
				collect(m)
			}
			sh.mu.RUnlock()
		}
	} else {
		sh := db.shardFor(meas)
		sh.mu.RLock()
		if m, ok := sh.measurements[meas]; ok {
			collect(m)
		}
		sh.mu.RUnlock()
	}
	vals := make([]string, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// PointCount returns the total number of stored points (all measurements,
// all shards).
func (db *DB) PointCount() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				n += sr.totalPoints()
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// TagFilter matches series by tag values. A nil filter matches everything.
// Values are exact matches; the special value "*" requires only that the tag
// key exists.
type TagFilter map[string]string

func (f TagFilter) matches(tags map[string]string) bool {
	for k, want := range f {
		got, ok := tags[k]
		if !ok {
			return false
		}
		if want != "*" && got != want {
			return false
		}
	}
	return true
}

// Query describes a read. Zero Start/End mean unbounded. Cols is the
// projection — the one description of it, from InfluxQL text to the fold.
// Raw columns return the stored points; aggregate columns produce one row
// per aligned window (Every > 0) or one row per result series (Every == 0).
// The two kinds do not mix in one list (Query.validate).
type Query struct {
	Measurement string
	Start, End  time.Time
	Filter      TagFilter
	Cols        []AggCol // empty = every field, raw (SELECT *)
	GroupByTags []string // produce one result series per distinct combination
	Every       time.Duration
	Limit       int // max rows per series, 0 = unlimited
}

// AggCol is one projected column: a field, raw (Agg == AggNone) or under
// its own aggregate. Field "*" stands for every field of the measurement,
// expanded in place in sorted order.
type AggCol struct {
	Field string
	Agg   AggFunc
	Pct   float64 // the percentile argument of AggPercentile, in [0, 100]
}

// name is the result column the engine emits for c — the one place a
// column is named: the field for a raw column, "<agg>_<field>" otherwise.
func (c AggCol) name() string {
	if c.Agg == AggNone {
		return c.Field
	}
	return string(c.Agg) + "_" + c.Field
}

// partial is the empty mergeable state of c's aggregate.
func (c AggCol) partial() partial {
	return partial{agg: c.Agg, pct: c.Pct, mode: modeOf(c.Agg)}
}

// aggregated reports whether the projection aggregates. validate holds a
// list to one kind, so the first column decides.
func (q Query) aggregated() bool {
	return len(q.Cols) > 0 && q.Cols[0].Agg != AggNone
}

// rawLimit is the row count each run may be clamped to while it is
// snapshotted (or decoded), 0 for no clamp. Only the raw all-column query
// qualifies: every stored row carries at least one field (Validate enforces
// it), so each snapshotted row is an output row. With an explicit
// projection a row may lack every requested column and emit nothing, so
// the clamp would drop matching rows further down the run — those queries
// truncate at emission instead.
func (q Query) rawLimit() int {
	if len(q.Cols) == 0 {
		return q.Limit
	}
	return 0
}

// validate refuses a projection the engine cannot answer as asked, rather
// than answering something else under the asked-for names.
func (q Query) validate() error {
	for _, c := range q.Cols {
		if (c.Agg != AggNone) != q.aggregated() {
			return errors.New("raw and aggregate columns cannot be mixed in one SELECT")
		}
		if c.Agg == AggPercentile && !(c.Pct >= 0 && c.Pct <= 100) {
			return fmt.Errorf("percentile argument %v outside [0, 100]", c.Pct)
		}
	}
	if q.Every > 0 && !q.aggregated() {
		return errors.New("GROUP BY time() needs an aggregate column")
	}
	return nil
}

// Row is one result row: a timestamp and one value per requested column.
// Missing values are represented by a nil entry.
type Row struct {
	Time   time.Time
	Values []*lineproto.Value
}

// Series is one result series.
type Series struct {
	Name    string
	Tags    map[string]string // group-by tag values
	Columns []string          // field columns (time excluded)
	Rows    []Row
}

// SelectContext is the read door of a database: it executes a query with
// the two-phase, lock-light engine in select.go — phase 1 snapshots
// matching point runs under the shard read lock, phase 2 filters, buckets
// and aggregates them outside any lock on a bounded worker pool. Results
// may be served from and are stored into a small TTL'd cache (cache.go);
// treat them as read-only. The context is observed between phase-2
// aggregation tasks (and by the pool workers before they start one), so a
// caller that goes away stops the query instead of finishing aggregation
// nobody will read. A cancelled query returns the context's error and
// stores nothing in the result cache.
//
// A context carrying a trace (obs.WithTrace) gets per-phase spans, and
// one carrying a profile collector (withProf — EXPLAIN ANALYZE) gets the
// engine's scan/decode/cache counters and phase timings; each phase is
// timed once for both (phase, profile.go). On ordinary queries both
// lookups are zero-allocation no-ops and no clock is read.
func (db *DB) SelectContext(ctx context.Context, q Query) ([]Series, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prof := profFrom(ctx)
	tr := obs.TraceFrom(ctx)
	total := beginPhase(tr, prof, phaseTotal)
	total.span.Attr("db", db.name).Attr("measurement", q.Measurement)
	defer total.end()

	ph := beginPhase(tr, prof, phaseCache)
	res, ref, ok := db.qcache.lookup(db, q)
	ph.span.Attr("hit", strconv.FormatBool(ok))
	ph.end()
	if prof != nil {
		prof.CacheHit = ok
	}
	if ok {
		total.span.Attr("cache", "hit")
		return res, nil
	}
	ph = beginPhase(tr, prof, phaseSnapshot)
	cols, strs, groups, err := db.snapshotSelect(q, prof)
	ph.end()
	if err != nil {
		return nil, err
	}
	ph = beginPhase(tr, prof, phaseExecute)
	ph.span.AttrInt("groups", int64(len(groups)))
	out, err := db.executeGroups(ctx, q, cols, strs, groups, prof)
	ph.end()
	if err != nil {
		return nil, err
	}
	db.qcache.store(db, ref, out)
	return out, nil
}
