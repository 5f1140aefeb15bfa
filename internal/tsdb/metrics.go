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
//   - lms_job_*{job}: runs, failures, time spent and last success of the
//     background jobs (retention, compaction, checkpoint, wal_sync), counted
//     by the one lifecycle they all run on (obs.Job) over every database;
//   - lms_query_seconds + lms_slow_queries_total: /query handler latency
//     and the slow-query log counter (Handler.SlowQueryThreshold);
//   - lms_http_requests_shed_total, lms_http_inflight_requests/bytes:
//     the ingest admission gate (Handler.SetAdmission);
//   - per-database Func metrics sampled at scrape time: query-cache
//     hits/misses (the cache keeps its own atomics), resident points per
//     DB and per shard (the "queue depth" of each lock domain), and busy
//     query-pool workers.
//
// The bundle is created with the Store, and every database is born in its
// store (Store.openLocked) holding a reference to it: instrument pointers
// are always valid and no hook needs a nil check.

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics is the observability bundle of one Store.
type Metrics struct {
	reg *obs.Registry

	IngestPoints  *obs.Counter
	IngestBatches *obs.Counter
	IngestBytes   *obs.Counter
	DroppedPoints *obs.Counter
	Checkpoints   *obs.Counter
	SlowQueries   *obs.Counter
	WALFsync      *obs.Histogram
	QuerySeconds  *obs.Histogram

	jobRetention, jobCompaction, jobCheckpoint, jobWALSync *obs.JobStats

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
		reg:           reg,
		IngestPoints:  reg.NewCounter("lms_ingest_points_total", "Points acknowledged by the write path."),
		IngestBatches: reg.NewCounter("lms_ingest_batches_total", "Batches acknowledged by the write path."),
		IngestBytes:   reg.NewCounter("lms_ingest_bytes_total", "Line-protocol body bytes accepted by /write."),
		DroppedPoints: reg.NewCounter("lms_dropped_points_total", "Points in batches the engine refused (validation, WAL failure, closed DB)."),
		Checkpoints:   reg.NewCounter("lms_checkpoints_total", "Completed columnar checkpoints."),
		SlowQueries:   reg.NewCounter("lms_slow_queries_total", "Queries slower than the slow-query threshold."),
		WALFsync:      reg.NewHistogram("lms_wal_fsync_seconds", "WAL fsync latency.", nil),
		QuerySeconds:  reg.NewHistogram("lms_query_seconds", "/query request latency.", nil),
		jobRetention:  reg.NewJob("retention"),
		jobCompaction: reg.NewJob("compaction"),
		jobCheckpoint: reg.NewJob("checkpoint"),
		jobWALSync:    reg.NewJob("wal_sync"),
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
	reg.NewFunc("lms_db_query_workers_busy", "Query-pool workers currently aggregating.", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				emit(obs.L("db", db.Name()), float64(len(db.qsem)))
			}
		})
	reg.NewFunc("lms_db_resident_bytes", "Estimated resident column bytes per database, split by run state (building = each series' newest raw run, the append target; sealed = older raw runs; compressed = chunk-encoded runs, DESIGN.md §13).", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				cs := db.compressionStats()
				emit(obs.L("db", db.Name(), "state", "building"), float64(cs.buildingBytes))
				emit(obs.L("db", db.Name(), "state", "sealed"), float64(cs.sealedBytes))
				emit(obs.L("db", db.Name(), "state", "compressed"), float64(cs.compressedBytes))
			}
		})
	reg.NewFunc("lms_db_compressed_chunks", "Compressed column chunks resident per database (one timestamp chunk plus one per column of every compressed run).", "gauge",
		func(emit func(string, float64)) {
			for _, db := range s.snapshotDBs() {
				emit(obs.L("db", db.Name()), float64(db.compressionStats().chunks))
			}
		})
	reg.NewFunc("lms_db_compression_ratio", "Sealed-size over compressed-size ratio of the compressed runs (0 when nothing is compressed yet).", "gauge",
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
// estimated resident bytes per state, the compressed chunk count, and the
// pre-compression size of the compressed runs (for the ratio gauge).
type compStats struct {
	buildingBytes   int64
	sealedBytes     int64
	compressedBytes int64
	rawOfCompressed int64
	chunks          int
}

// compressionStats sweeps every shard under its read lock and sizes the
// resident runs by state. The newest raw run of each series is the
// append target ("building"); older raw runs are "sealed"; runs holding a
// compRun are "compressed".
func (db *DB) compressionStats() compStats {
	var cs compStats
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, m := range sh.measurements {
			for _, sr := range m.series {
				for i, run := range sr.runs {
					if c := run.comp; c != nil {
						cs.compressedBytes += compSizeBytes(c)
						cs.rawOfCompressed += c.RawBytes
						cs.chunks += 1 + len(c.Cols)
						continue
					}
					b := rawRunBytes(run.ts, run.cols)
					if i == len(sr.runs)-1 {
						cs.buildingBytes += b
					} else {
						cs.sealedBytes += b
					}
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
