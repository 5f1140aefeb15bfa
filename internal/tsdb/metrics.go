package tsdb

// Self-observability of the storage engine (DESIGN.md §10). Every Store
// carries a Metrics bundle — obs instruments fed by the hot paths —
// rendered on GET /metrics by the HTTP handler:
//
//   - lms_ingest_points_total / lms_ingest_batches_total: write
//     acknowledgements (recovery replay is not ingest and does not count);
//   - lms_dropped_points_total: points in batches the engine refused
//     (validation failures, WAL append errors, writes after Close);
//   - lms_ingest_bytes_total: /write body bytes accepted by the handler;
//   - lms_wal_fsync_seconds: latency of every WAL fsync (group commits,
//     interval syncs, rotations, Close), via durable.Options.SyncObserver;
//   - lms_checkpoints_total: completed columnar checkpoints;
//   - lms_db_chunk_decode_errors_total: compressed chunks that failed to
//     decode (the run is served as empty);
//   - lms_job_*{job}: runs, failures, time spent and last success of the
//     background jobs (retention, checkpoint, wal_sync), counted
//     by the one lifecycle they all run on (obs.Job) over every database;
//   - lms_query_seconds + lms_slow_queries_total: /query handler latency
//     and the slow-query log counter (Handler.SlowQueryThreshold);
//   - lms_http_requests_shed_total, lms_http_inflight_requests/bytes:
//     the ingest admission gate (Handler.SetAdmission);
//   - per-database Func metrics sampled at scrape time: query-cache
//     hits/misses (the cache keeps its own atomics) and resident points
//     per DB and per shard (the "queue depth" of each lock domain).
//
// The bundle is created with the Store, and every database is born in its
// store (Store.openLocked) holding a reference to it: instrument pointers
// are always valid and no hook needs a nil check.

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics is the observability bundle of one Store.
type Metrics struct {
	reg *obs.Registry

	IngestPoints      *obs.Counter
	IngestBatches     *obs.Counter
	IngestBytes       *obs.Counter
	DroppedPoints     *obs.Counter
	Checkpoints       *obs.Counter
	SlowQueries       *obs.Counter
	ChunkDecodeErrors *obs.Counter
	WALFsync          *obs.Histogram
	QuerySeconds      *obs.Histogram

	jobRetention, jobCheckpoint, jobWALSync *obs.JobStats

	// decodeErrOnce rate-limits the corrupt-chunk log to one line per store
	// (noteDecodeError); the counter takes every failure.
	decodeErrOnce sync.Once

	// gate is the ingest admission gate installed by Handler.SetAdmission;
	// the shed/in-flight Func metrics sample it at scrape time.
	gate atomic.Pointer[obs.Gate]

	// traces is the completed-trace ring installed by Store.SetTraces
	// (DESIGN.md §14); background work not tied to a request (checkpoints)
	// starts its own traces through it. Nil keeps tracing off.
	traces atomic.Pointer[obs.TraceRing]
}

// newMetrics registers the store-level instruments and the per-database
// sampling funcs over s.
func newMetrics(s *Store) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:               reg,
		IngestPoints:      reg.NewCounter("lms_ingest_points_total", "Points acknowledged by the write path."),
		IngestBatches:     reg.NewCounter("lms_ingest_batches_total", "Batches acknowledged by the write path."),
		IngestBytes:       reg.NewCounter("lms_ingest_bytes_total", "Line-protocol body bytes accepted by /write."),
		DroppedPoints:     reg.NewCounter("lms_dropped_points_total", "Points in batches the engine refused (validation, WAL failure, closed DB)."),
		Checkpoints:       reg.NewCounter("lms_checkpoints_total", "Completed columnar checkpoints."),
		SlowQueries:       reg.NewCounter("lms_slow_queries_total", "Queries slower than the slow-query threshold."),
		ChunkDecodeErrors: reg.NewCounter("lms_db_chunk_decode_errors_total", "Compressed chunks that failed to decode (each run served as empty; the first failure is logged)."),
		WALFsync:          reg.NewHistogram("lms_wal_fsync_seconds", "WAL fsync latency.", nil),
		QuerySeconds:      reg.NewHistogram("lms_query_seconds", "/query request latency.", nil),
		jobRetention:      reg.NewJob("retention"),
		jobCheckpoint:     reg.NewJob("checkpoint"),
		jobWALSync:        reg.NewJob("wal_sync"),
	}
	reg.NewFunc("lms_http_requests_shed_total", "Ingest requests shed with 429 by the admission gate.", "counter",
		func(emit func(string, float64)) {
			emit("", float64(m.gate.Load().Shed()))
		})
	reg.NewFunc("lms_http_inflight_requests", "Ingest requests currently admitted.", "gauge",
		func(emit func(string, float64)) {
			reqs, _ := m.gate.Load().InFlight()
			emit("", float64(reqs))
		})
	reg.NewFunc("lms_http_inflight_bytes", "Ingest body bytes currently admitted.", "gauge",
		func(emit func(string, float64)) {
			_, bytes := m.gate.Load().InFlight()
			emit("", float64(bytes))
		})
	reg.NewFunc("lms_db_query_cache_hits_total", "Select calls served from the query-result cache.", "counter",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				hits, _ := db.QueryCacheStats()
				emit(obs.L("db", db.Name()), float64(hits))
			}
		})
	reg.NewFunc("lms_db_query_cache_misses_total", "Select calls that executed the engine.", "counter",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				_, misses := db.QueryCacheStats()
				emit(obs.L("db", db.Name()), float64(misses))
			}
		})
	reg.NewFunc("lms_db_points", "Resident points per database.", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				emit(obs.L("db", db.Name()), float64(db.PointCount()))
			}
		})
	reg.NewFunc("lms_db_shard_points", "Resident points per lock shard.", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				for i, n := range db.shardPointCounts() {
					emit(obs.L("db", db.Name(), "shard", strconv.Itoa(i)), float64(n))
				}
			}
		})
	reg.NewFunc("lms_db_resident_bytes", "Resident column bytes per database — the len of what the runs store — split by run state (head = each series' newest run, its rows encoded as they arrive; compressed = the chunks behind it, DESIGN.md §13).", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				cs := db.compressionStats()
				emit(obs.L("db", db.Name(), "state", "head"), float64(cs.headBytes))
				emit(obs.L("db", db.Name(), "state", "compressed"), float64(cs.compressedBytes))
			}
		})
	reg.NewFunc("lms_db_compressed_chunks", "Compressed column chunks resident per database (one timestamp chunk plus one per column of every chunk).", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				emit(obs.L("db", db.Name()), float64(db.compressionStats().chunks))
			}
		})
	reg.NewFunc("lms_db_compression_ratio", "Raw-size over encoded-size ratio of the chunks: what their rows would cost as raw arrays over what they store (0 before the first cut).", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				cs := db.compressionStats()
				v := 0.0
				if cs.compressedBytes > 0 {
					v = float64(cs.rawOfCompressed) / float64(cs.compressedBytes)
				}
				emit(obs.L("db", db.Name()), v)
			}
		})
	reg.NewFunc("lms_db_wal_sealed", "1 when the database's WAL sealed itself after a write/fsync failure and refuses appends (the seal reason is logged once).", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				v := 0.0
				if db.WALSealed() != nil {
					v = 1
				}
				emit(obs.L("db", db.Name()), v)
			}
		})
	return m
}

// Registry exposes the underlying obs registry (the /metrics document).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Handler serves the metrics as a Prometheus scrape endpoint.
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }

// setGate installs the admission gate sampled by the shed/in-flight
// metrics.
func (m *Metrics) setGate(g *obs.Gate) { m.gate.Store(g) }

// Metrics returns the store's observability bundle.
func (s *Store) Metrics() *Metrics { return s.metrics }

// SetTraces installs the completed-trace ring (DESIGN.md §14): databases
// opened through the store record checkpoint traces into it, and the
// HTTP handler (SetTraces there too) serves it on /debug/traces.
func (s *Store) SetTraces(r *obs.TraceRing) { s.metrics.traces.Store(r) }

// traceRing returns the store's trace ring, nil when tracing is off.
func (db *DB) traceRing() *obs.TraceRing { return db.metrics.traces.Load() }

// --- DB-side hooks --------------------------------------------------------

// noteIngest counts an acknowledged batch.
func (db *DB) noteIngest(points int) {
	db.metrics.IngestPoints.Add(uint64(points))
	db.metrics.IngestBatches.Inc()
}

// noteDrop counts a refused batch.
func (db *DB) noteDrop(points int) { db.metrics.DroppedPoints.Add(uint64(points)) }

// noteCheckpoint counts a completed checkpoint.
func (db *DB) noteCheckpoint() { db.metrics.Checkpoints.Inc() }

// observeFsync feeds the WAL fsync histogram (durable.Options.SyncObserver).
func (db *DB) observeFsync(d time.Duration) { db.metrics.WALFsync.Observe(d.Seconds()) }

// compStats is one scrape-time sweep of the run states (DESIGN.md §13):
// resident bytes of the heads and of the chunks, the chunk count, and what
// the chunks' rows would cost raw (for the ratio gauge).
type compStats struct {
	headBytes       int64
	compressedBytes int64
	rawOfCompressed int64
	chunks          int
}

// compressionStats sweeps every shard under its read lock and sizes the
// resident runs by state.
func (db *DB) compressionStats() compStats {
	var cs compStats
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				for _, c := range sr.runs {
					cs.compressedBytes += compSizeBytes(c)
					cs.rawOfCompressed += c.RawBytes
					cs.chunks += 1 + len(c.Cols)
				}
				if sr.head != nil {
					cs.headBytes += sr.head.residentBytes()
				}
			}
		}
		sh.mu.RUnlock()
	}
	return cs
}

// shardPointCounts returns the resident point count of every lock shard.
func (db *DB) shardPointCounts() []int {
	out := make([]int, len(db.shards))
	for i, sh := range db.shards {
		sh.mu.RLock()
		n := 0
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				n += sr.totalPoints()
			}
		}
		sh.mu.RUnlock()
		out[i] = n
	}
	return out
}
