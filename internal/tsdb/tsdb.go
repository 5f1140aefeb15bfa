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
// per-point field map allocation. Each finished block is encoded onto its
// series' head, an append-only stream per column (head.go, DESIGN.md §13),
// cut into a chunk every sealRows rows; the cut merges the chunks behind
// it, doubling, up to maxChunkRows rows (series.compact). Writes keep every
// series sorted and never rewrite a byte a reader can see.
//
// # Read path
//
// DB.SelectContext runs on a two-phase, lock-light engine (select.go,
// DESIGN.md §6): phase 1 holds the shard *read* lock only while capturing
// the matching runs — chunk pointers, head stream headers — and phase 2
// decodes them (the time range and, for raw queries, the row Limit pushed
// into the decode), buckets, groups and aggregates entirely outside the
// lock, on the request's own goroutine, merging per-run partial aggregates (agg.go)
// computed by vectorized sweeps over the typed columns. A small
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
// serialize every run as a chunk to an immutable on-disk file and
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
	"maps"
	"math/bits"
	"os"
	"slices"
	"sort"
	"strconv"
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
	// CompressAfter is ignored: rows are encoded as they are written
	// (DESIGN.md §13). It stays only while bench/layers.go sets it.
	CompressAfter time.Duration
	// Retention is the retention window of every database the store opens
	// (DB.setRetention; 0 = keep forever): the ones recovered at start-up
	// and every one created later alike.
	Retention time.Duration
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

	// retJob sweeps retention in the background (setRetention), so
	// expired data ages out of an idle database too; Close and Abort stop
	// it and wait for its run.
	retJob obs.Job

	// Read path (select.go, cache.go).
	qcache queryCache
	// measGens holds one invalidation generation counter per measurement
	// (*atomic.Uint64); globalGen invalidates everything (retention
	// sweeps).
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

// setRetention configures the retention window: points older than d
// relative to the newest inserted point are dropped by a background job
// (every half window, so within ~1.5x the window of expiring, clamped to
// [10ms, 1s] as tests use tiny windows; stopped by Close) — the one
// trigger, whether the database is ingesting or idle. The cutoff anchor
// is the newest point advanced by the wall-clock time elapsed since the
// last write — an idle database keeps aging as if its stream clock kept
// running — rather than the wall clock outright, so historical data
// (simulation dumps, backfills, the 2017-era corpora of this repo) keeps
// its retention window anchored at its own newest point. Zero disables
// pruning and halts the job.
func (db *DB) setRetention(d time.Duration) {
	db.retention.Store(int64(d))
	period := time.Duration(0)
	if d > 0 {
		period = min(max(d/2, 10*time.Millisecond), time.Second)
	}
	db.retJob.Every(period, db.pruneTick)
}

// pruneTick is the timed retention sweep (see setRetention).
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

// runSpan is the adjacent chunks sr.runs[lo:hi], rows rows in all.
type runSpan struct{ lo, hi, rows int }

// Compress merges, in every series, each span of chunks mergeSpans plans
// into one chunk (series.compact) and returns the number of chunks
// replaced. Writes and retention sweeps merge where they change a series'
// chunks, so a store this build wrote holds no span and Compress returns 0;
// recovery runs it once, after the WAL replay, for a checkpoint written
// with spans unmerged.
func (db *DB) Compress() int {
	total := 0
	for _, sh := range db.shards {
		sh.mu.Lock()
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				total += sr.compact(db.metrics, m.strs.vals, &sh.bld)
			}
		}
		sh.mu.Unlock()
	}
	return total
}

type measurement struct {
	name   string
	series map[string]*series
	idx    tagIndex // the series by tag pair, in key order (index.go)
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

// series holds the point runs of one tag set, log-structured: chunks in
// creation order, then the head, the newest run (head.go). Invariants the
// lock-light read path (select.go) relies on:
//
//   - every run's rows are sorted by time,
//   - a byte, word or value a reader can see is never rewritten: a chunk
//     is never written to — a merge encodes chunks into a new one, pruning
//     encodes what it keeps of one into a new one — and the head only
//     appends to its streams, replaces its presence bitmaps, and encodes
//     whatever cannot append (an exact rewrite, a late block, a retention
//     cut, a kind change, a wider string id) into fresh streams.
//
// A reader that captured a chunk pointer or a head snapshot under the shard
// RLock may therefore keep decoding it after releasing the lock. The head
// is the only run a write appends to. The cut merges chunks geometrically
// up to maxChunkRows rows (compact), so an in-order series of n rows holds
// about n/maxChunkRows + 5 chunks (5 = log2(maxChunkRows/sealRows)), and a
// row is re-encoded once per doubling of its chunk, at most 5 times.
type series struct {
	key  string            // seriesKey(tags), the string m.series holds it under
	tags map[string]string // immutable after creation
	runs []*compRun
	// head is nil only where a chunk recovery could not decode stands in
	// for it: that chunk counts as full, and the next block starts a head.
	head *head
}

// totalPoints is the row count across all runs.
func (sr *series) totalPoints() int {
	n := 0
	for _, c := range sr.runs {
		n += c.N
	}
	if sr.head != nil {
		n += sr.head.n
	}
	return n
}

// mergeSpans is the merge plan for sr: its chunks, grouped by a binary
// counter over size classes (the bit length of rows/sealRows) — two
// adjacent chunks of one class merge while the sum fits maxChunkRows.
// Chunks thus double up to maxChunkRows rows, each row re-encoded once per
// doubling. The counter is a stack reduction from the oldest chunk, so
// once its spans are merged it plans none: the layout after every write is
// the settled one. A span of one chunk has nothing to do and is left out,
// and so is a chunk standing in for a head.
func (sr *series) mergeSpans(stack []runSpan) []runSpan {
	class := func(rows int) int { return bits.Len(uint(rows / sealRows)) }
	n := len(sr.runs)
	if sr.head == nil {
		n--
	}
	for i := 0; i < n; i++ {
		stack = append(stack, runSpan{i, i + 1, sr.runs[i].N})
		for k := len(stack); k >= 2; k = len(stack) {
			a, b := stack[k-2], stack[k-1]
			if class(a.rows) != class(b.rows) || a.rows+b.rows > maxChunkRows {
				break
			}
			stack = append(stack[:k-2], runSpan{a.lo, b.hi, a.rows + b.rows})
		}
	}
	return slices.DeleteFunc(stack, func(s runSpan) bool { return s.hi-s.lo == 1 })
}

// compact merges each span mergeSpans plans for sr into one chunk, newest
// span first so the older ones keep their index, and returns the number of
// chunks replaced. The caller holds the shard write lock and lends the
// shard's builder for its span stack and bit writer, so a call with
// nothing to merge allocates nothing. Chunks in time order — an in-order
// series' cuts — are appended onto one head, which encodes each row once;
// others merge pairwise, so each row is copied once per level of the tree.
// A chunk that does not decode leaves its span as it is.
func (sr *series) compact(mt *Metrics, strs []string, scratch *runBuilder) int {
	scratch.spans = sr.mergeSpans(scratch.spans[:0])
	if len(scratch.spans) == 0 {
		return 0
	}
	a := pooledArena()
	defer arenaPool.Put(a)
	replaced := 0
spans:
	for i := len(scratch.spans) - 1; i >= 0; i-- {
		s := scratch.spans[i]
		chunks := sr.runs[s.lo:s.hi]
		parts := make([]*colRun, len(chunks))
		inOrder := true
		a.reset() // nothing decoded for the span before is in use
		for j, c := range chunks {
			raw, err := decodeChunk(c, len(strs), a)
			if err != nil {
				mt.noteDecodeError(err)
				continue spans
			}
			parts[j] = raw
			inOrder = inOrder && (j == 0 || chunks[j-1].MaxTS <= c.MinTS)
		}
		var out *compRun
		if inOrder {
			h := &head{}
			for _, p := range parts {
				h.append(p.ts, p.cols, strs, &scratch.enc, nil)
			}
			out = h.chunk()
		} else {
			for len(parts) > 1 {
				next := parts[:0]
				for j := 0; j < len(parts); j += 2 {
					if j+1 == len(parts) {
						next = append(next, parts[j])
					} else {
						next = append(next, mergeRuns(strs, parts[j], parts[j+1]))
					}
				}
				parts = next
			}
			out = encodeRun(parts[0].ts, parts[0].cols, strs, &scratch.enc)
		}
		sr.runs = slices.Replace(sr.runs, s.lo, s.hi, out)
		replaced += s.hi - s.lo
	}
	return replaced
}

// commit applies a finished builder block to the series. Only the head
// takes a block:
//
//   - a block whose timestamps exactly rewrite the head merges
//     field-by-field with last-write-wins (InfluxDB duplicate-point
//     semantics) instead of opening a run and paying compaction,
//   - an in-order block (the agent hot path) is encoded onto the head while
//     it holds fewer than sealRows rows,
//   - anything else starts the head afresh: an in-order block cuts the
//     full head into a chunk, an out-of-order one absorbs the short runs
//     before it; either changed the chunks behind the head, which then
//     merge (compact).
func (sr *series) commit(mt *Metrics, m *measurement, b *runBuilder) {
	strs := m.strs.vals
	h := sr.head
	if h != nil {
		// The exact-match check precedes the in-order check: a run whose
		// timestamps are all equal (e.g. a single point) satisfies both,
		// and re-writing it must upsert, not accumulate duplicates.
		if h.rewrite(b, m) {
			return
		}
		if h.n < sealRows && h.maxTS <= b.ts[0] {
			h.append(b.ts, b.cols, strs, &b.enc, nil)
			return
		}
	}
	// An in-order block behind a full head (the cut) or a series' first
	// block stands alone. An out-of-order block absorbs the short runs
	// before it — the head it cut off, and chunks a retention cut left
	// short — and never a full one: a cut is never undone, and a late block
	// costs its rows plus fewer than sealRows under the lock however long
	// the history. Overlapping runs are left to queries, which merge runs
	// anyway, and to compact.
	blk := &colRun{ts: b.ts, cols: b.cols}
	var cut *compRun
	a := pooledArena() // the head and short chunks merged into blk decode here
	switch {
	case h == nil:
		h = &head{}
		sr.head = h
	case h.n >= sealRows:
		cut = h.chunk()
		sr.runs = append(sr.runs, cut)
		h.clear()
	case len(sr.runs) == 0 || sr.runs[len(sr.runs)-1].N >= sealRows:
		arenaPool.Put(a)
		if !h.lateRow(blk, strs, &b.enc) {
			h.absorb(blk, strs, &b.enc)
		}
		return
	default:
		blk = mergeRuns(strs, h.decode(len(strs), a), blk)
		h.clear()
	}
	for k := len(sr.runs); k > 0 && sr.runs[k-1].N < sealRows; k = len(sr.runs) {
		ra, err := decodeChunk(sr.runs[k-1], len(strs), a)
		if err != nil {
			mt.noteDecodeError(err)
			break
		}
		blk = mergeRuns(strs, ra, blk)
		sr.runs = sr.runs[:k-1]
	}
	arenaPool.Put(a) // the merges copied every row out
	h.append(blk.ts, blk.cols, strs, &b.enc, cut)
	sr.compact(mt, strs, b)
}

// adoptHead makes the newest chunk the head again, decoded and encoded
// onto a fresh head in one pass: after recovery, and after a retention
// sweep dropped the head. A chunk that fails to decode stays, counted, and
// stands in for the head (commit treats it as full).
func (sr *series) adoptHead(mt *Metrics, strs []string, scratch *bitWriter) {
	n := len(sr.runs)
	if sr.head != nil || n == 0 {
		return
	}
	a := pooledArena()
	defer arenaPool.Put(a)
	raw, err := decodeChunk(sr.runs[n-1], len(strs), a)
	if err != nil {
		mt.noteDecodeError(err)
		return
	}
	sr.runs = sr.runs[:n-1]
	sr.head = &head{}
	sr.head.append(raw.ts, raw.cols, strs, scratch, nil)
}

// seriesKey builds the canonical identity of a tag set: its pairs in
// ascending key order, as the write path builds it from a frame.
func seriesKey(tags map[string]string) string {
	if len(tags) == 0 {
		return ""
	}
	keys, size := make([]string, 0, len(tags)), 0
	for k, v := range tags {
		keys, size = append(keys, k), size+len(k)+len(v)+2
	}
	sort.Strings(keys)
	key := make([]byte, 0, size)
	for _, k := range keys {
		key = appendKeyTag(key, k, tags[k])
	}
	return string(key)
}

// appendKeyTag appends one tag to the series key built so far, as text or
// as the bytes of a frame. Line protocol lets a tag key or value hold ','
// and '=' (escaped on the wire), so the key backslash-escapes them and '\'
// itself: {a: "1,b=2"} and {a: "1", b: "2"} are two series, and a key
// whose tags hold none of the three bytes is plain "k=v,k=v".
func appendKeyTag[S string | []byte](key []byte, k, v S) []byte {
	if len(key) > 0 {
		key = append(key, ',')
	}
	key = appendKeyEscaped(key, k)
	key = append(key, '=')
	return appendKeyEscaped(key, v)
}

// keyEscapes marks the bytes appendKeyEscaped escapes.
var keyEscapes = [256]bool{',': true, '=': true, '\\': true}

func appendKeyEscaped[S string | []byte](key []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if keyEscapes[s[i]] {
			key = append(append(key, s[start:i]...), '\\')
			start = i
		}
	}
	return append(key, s[start:]...)
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
// database's idle clock.
func (db *DB) applyFrame(fb *frameBatch) {
	if len(fb.refs) == 0 {
		return
	}
	db.lastWrite.Store(time.Now().UnixNano())
	for idx, sh := range db.shards {
		if !fb.multi && idx != fb.refs[0].shard {
			continue
		}
		for _, ref := range fb.refs {
			if ref.shard == idx {
				sh.writeFrame(db, fb, idx)
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
// Consecutive points of the same series are committed as one block
// (series.commit).
func (sh *shard) writeFrame(db *DB, fb *frameBatch, idx int) {
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
		if curS != nil && len(b.ts) > 0 {
			b.finish()
			curS.commit(db.metrics, curM, b)
			b.reset()
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
		for _, t := range cur.Tags {
			key = appendKeyTag(key, t.Key, t.Value)
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
				k := string(key)
				sr = &series{key: k, tags: tags}
				curM.series[k] = sr
				curM.idx.add(sr)
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
		dropped = sh.pruneLocked(db.metrics, beforeNS) || dropped
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
// was removed. A run's bounds decide its fate; only a partially expired run
// is decoded, cut and encoded again — a chunk into a new chunk, the head
// into fresh streams (readers may hold the old ones) — a series whose
// head expired makes its newest chunk the head, and what a series keeps
// merges again (compact).
func (sh *shard) pruneLocked(mt *Metrics, beforeNS int64) bool {
	anyDropped := false
	scratch := &sh.bld
	a := pooledArena()
	defer arenaPool.Put(a)
	for mname, m := range sh.measurements {
		strs := m.strs.vals
		deleted := false
		for key, sr := range m.series {
			changed := false
			kept := sr.runs[:0:0]
			a.reset() // nothing decoded for the series before is in use
			for _, c := range sr.runs {
				if c.MaxTS < beforeNS {
					changed = true
					continue
				}
				if c.MinTS < beforeNS {
					if raw, err := decodeChunk(c, len(strs), a); err != nil {
						mt.noteDecodeError(err) // keep data over dropping it
					} else {
						ts, cols := raw.since(beforeNS)
						c, changed = encodeRun(ts, cols, strs, &scratch.enc), true
					}
				}
				kept = append(kept, c)
			}
			if h := sr.head; h != nil && h.minTS < beforeNS {
				if h.maxTS < beforeNS {
					sr.head = nil
				} else {
					ts, cols := h.decode(len(strs), a).since(beforeNS)
					h.clear()
					h.append(ts, cols, strs, &scratch.enc, nil)
				}
				changed = true
			}
			if changed {
				sr.runs = kept
				sr.adoptHead(mt, strs, &scratch.enc)
				sr.compact(mt, strs, scratch)
				anyDropped = true
			}
			if len(sr.runs) == 0 && sr.head == nil {
				delete(m.series, key)
				deleted = true
			}
		}
		if len(m.series) == 0 {
			delete(sh.measurements, mname)
		} else if deleted {
			m.idx.rebuild(m.series)
		}
	}
	return anyDropped
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

// TagKeys lists the tag keys of a measurement, sorted. With measurement ==
// "" it lists the keys of every measurement across all shards.
func (db *DB) TagKeys(measurement string) []string {
	return db.tagMeta(measurement, func(ix *tagIndex) []string { return ix.tagKeys() })
}

// TagValues lists the distinct values of one tag key over a measurement,
// sorted. With measurement == "" it scans all measurements across all
// shards (used by the dashboard agent to discover the hosts participating
// in a job).
func (db *DB) TagValues(measurement, key string) []string {
	return db.tagMeta(measurement, func(ix *tagIndex) []string { return slices.Collect(maps.Keys(ix.tags[key])) })
}

// tagMeta answers a SHOW TAG statement from the tag index: list over one
// measurement, or over every measurement when it is "", the union sorted.
func (db *DB) tagMeta(measurement string, list func(*tagIndex) []string) []string {
	var out []string
	if measurement != "" {
		sh := db.shardFor(measurement)
		sh.mu.RLock()
		if m, ok := sh.measurements[measurement]; ok {
			out = list(&m.idx)
		}
		sh.mu.RUnlock()
	} else {
		for _, sh := range db.shards {
			sh.mu.RLock()
			for _, m := range sh.measurements {
				out = append(out, list(&m.idx)...)
			}
			sh.mu.RUnlock()
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
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

// TagFilter matches series by tag values. A nil filter matches everything;
// each pair is an exact match, "*" included.
type TagFilter map[string]string

func (f TagFilter) matches(tags map[string]string) bool {
	for k, want := range f {
		if got, ok := tags[k]; !ok || got != want {
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
// decoded, 0 for no clamp. Only the raw all-column query qualifies: every
// stored row carries at least one field (Validate enforces it), so each
// decoded row is an output row. With an explicit
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
		if c.Agg != AggNone && !ValidAgg(string(c.Agg)) {
			return fmt.Errorf("unknown function %q", c.Agg)
		}
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

// SelectContext is the read door of a database: it refuses a query it
// cannot answer as asked (validate), then executes it with the two-phase,
// lock-light engine in select.go — phase 1 snapshots matching point runs
// under the shard read lock, phase 2 filters, buckets and aggregates them
// outside any lock on the caller's goroutine. Results may be served from
// and are stored into a small TTL'd cache (cache.go); treat them as
// read-only. The context is observed before each result group, so a
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
	if err := q.validate(); err != nil {
		return nil, err
	}
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
