package tsdb

// Durable storage glue (DESIGN.md §9). The on-disk formats — segmented
// CRC32-framed WAL, columnar checkpoint files — live in the durable
// subpackage; this file owns their lifecycle around a DB:
//
//   - the durable write path: a write encodes the batch and appends it
//     to the WAL (fsynced per Durability.Fsync) *before* applying it in
//     memory and acknowledging, under a read-gate shared with checkpoints;
//   - checkpoints: rotate the WAL under the write gate, capture every run
//     as a chunk — a chunk's pointer, a head's bytes as they are, copied
//     out at their exact size (the same invariants the lock-light read
//     path relies on make this cheap) — serialize them to a checkpoint
//     file outside the gate and delete the covered WAL segments;
//   - recovery: load the newest valid checkpoint, adopting its chunks as
//     they are but each series' newest, which one decode turns back into
//     the head writes append to, then replay the WAL tail through the
//     ordinary columnar write path (applyFrame and the shards'
//     runBuilders), truncating at the first torn frame;
//   - retention: a sweep that dropped rows schedules a checkpoint (rate
//     limited by Durability.RetentionCheckpointEvery), which rewrites the
//     on-disk state without the expired blocks and deletes the expired
//     WAL segments.
//
// The gate ordering is what makes a checkpoint an exact WAL prefix:
// writers hold the gate in read mode across "append to WAL, apply to
// memory", so when a checkpoint holds it in write mode the memory state
// is exactly the contents of all segments below the freshly rotated one.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fsys"
	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/tsdb/durable"
)

// ErrDBClosed is returned by writes to a closed durable database.
var ErrDBClosed = errors.New("tsdb: database is closed")

// Durability configures the durable storage engine of a Store or DB. The
// zero value (empty Dir) keeps the database in memory only.
type Durability struct {
	// Dir is the root data directory; each database lives in its own
	// subdirectory. Empty disables persistence.
	Dir string
	// Fsync selects when WAL appends reach stable storage: per batch
	// (default, no acknowledged write ever lost), on an interval, or
	// never (page cache only).
	Fsync durable.FsyncPolicy
	// FsyncInterval is the FsyncEveryInterval period (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates WAL segments past this size (default 8 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers a background checkpoint once the live WAL
	// grows past this size (default 32 MiB).
	CheckpointBytes int64
	// RetentionCheckpointEvery rate-limits the checkpoint a retention
	// sweep schedules after dropping rows, so expired data also leaves
	// the disk (default 1 minute).
	RetentionCheckpointEvery time.Duration
	// FS is the filesystem the WAL and checkpoints run on. Nil selects
	// the real one; the fault-injection sweeps (persist_fault_test.go)
	// slide internal/faultfs underneath the whole engine through it.
	FS fsys.FS
}

func (d Durability) withDefaults() Durability {
	if d.CheckpointBytes <= 0 {
		d.CheckpointBytes = 32 << 20
	}
	if d.RetentionCheckpointEvery <= 0 {
		d.RetentionCheckpointEvery = time.Minute
	}
	return d
}

func (d Durability) walOptions() durable.Options {
	return durable.Options{Fsync: d.Fsync, FsyncInterval: d.FsyncInterval, SegmentBytes: d.SegmentBytes, FS: d.FS}
}

// durability is the runtime durable state of one DB.
type durability struct {
	dir  string
	opts Durability
	wal  *durable.WAL

	// gate serializes checkpoints against writers: writeDurable holds it in
	// read mode across "WAL append + memory apply", Checkpoint in write
	// mode across "rotate + snapshot", so a checkpoint captures exactly
	// the batches in the segments it covers.
	gate sync.RWMutex
	// ckptMu serializes whole checkpoint operations.
	ckptMu   sync.Mutex
	lastCkpt atomic.Int64 // unix ns of the last completed checkpoint
	// ckptJob runs the background checkpoints, kicked by WAL growth and by
	// retention drops. A failed one leaves the WAL intact, so no data is at
	// risk; the next trigger past the floor (or Close) retries.
	ckptJob obs.Job
}

// ckptRetryBackoff is the floor between background checkpoint attempts:
// a persistently failing checkpoint (disk full) must not retry — and
// rotate, fsync, rebuild the snapshot — on every subsequent batch.
const ckptRetryBackoff = 5 * time.Second

// writeDurable is writeFrame's durable path: log first, apply second,
// acknowledge last. The WAL record is the frame itself — as received when
// it came over the frame door, as WriteBatchContext encoded it otherwise.
// A context carrying a trace (obs.WithTrace) gets spans for the WAL append
// — which, under the per-batch fsync policy, includes the group-commit
// fsync wait — and the in-memory apply.
func (d *durability) writeDurable(ctx context.Context, db *DB, fb *frameBatch) error {
	tr := obs.TraceFrom(ctx)
	d.gate.RLock()
	wsp := tr.Start("tsdb.wal.append").AttrInt("bytes", int64(len(fb.frame)))
	_, _, err := d.wal.Append(fb.frame)
	wsp.End()
	if err == nil {
		asp := tr.Start("tsdb.apply").AttrInt("points", int64(len(fb.refs)))
		db.applyFrame(fb)
		asp.End()
	}
	d.gate.RUnlock()
	if err != nil {
		if errors.Is(err, durable.ErrClosed) {
			return ErrDBClosed
		}
		return fmt.Errorf("tsdb: WAL append: %w", err)
	}
	if d.wal.TotalSize() >= d.opts.CheckpointBytes {
		d.ckptJob.Kick()
	}
	return nil
}

// noteRetentionDrop is called after a retention sweep removed rows:
// schedule a checkpoint so the expired rows leave the disk too, rate
// limited so steady ingest with retention does not checkpoint every sweep.
func (d *durability) noteRetentionDrop() {
	if time.Now().UnixNano()-d.lastCkpt.Load() >= int64(d.opts.RetentionCheckpointEvery) {
		d.ckptJob.Kick()
	}
}

// Checkpoint writes the database's current state to a fresh checkpoint
// file and deletes the WAL segments it covers. On an in-memory database
// it is a no-op. Checkpoints run automatically (WAL growth, retention
// sweeps, Close); calling this is only needed for tests and tooling.
func (db *DB) Checkpoint() error {
	d := db.dur
	if d == nil {
		return nil
	}
	// A checkpoint is not tied to any one request, so it records its own
	// trace (ring permitting): rotate + snapshot under the write gate,
	// then the serialization outside it. A failed checkpoint is the one an
	// operator goes looking for, so every return path finishes the trace
	// and the failing step's span carries the error.
	tr := db.traceRing().StartTrace("tsdb.checkpoint", "")
	defer tr.Finish()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.gate.Lock()
	rsp := tr.Start("tsdb.checkpoint.rotate").Attr("db", db.name)
	seg, err := d.wal.Rotate()
	rsp.End()
	if err != nil {
		d.gate.Unlock()
		rsp.Attr("error", err.Error())
		if errors.Is(err, durable.ErrClosed) {
			return ErrDBClosed
		}
		return err
	}
	ssp := tr.Start("tsdb.checkpoint.snapshot")
	snap := db.buildSnapshot()
	ssp.End()
	d.gate.Unlock()
	wsp := tr.Start("tsdb.checkpoint.write")
	err = durable.WriteSnapshot(d.opts.FS, d.dir, seg, snap)
	wsp.End()
	if err != nil {
		wsp.Attr("error", err.Error())
		return fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	d.lastCkpt.Store(time.Now().UnixNano())
	db.noteCheckpoint()
	return d.wal.RemoveBelow(seg)
}

// WALSealed reports the error that sealed the database's WAL against
// appends after a write or fsync failure, or nil for a healthy (or
// in-memory, or merely closed) database. Exported on /metrics as the
// lms_db_wal_sealed gauge.
func (db *DB) WALSealed() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.wal.Sealed()
}

// Close stops the background jobs and, for a durable database, writes a
// final checkpoint and closes the WAL. Further writes return ErrDBClosed.
// Closing twice is safe.
func (db *DB) Close() error {
	if !db.shut() || db.dur == nil {
		return nil
	}
	err := db.Checkpoint()
	if cerr := db.dur.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes a durable database the hard way: no final checkpoint, no
// fsync — exactly the state a process crash would leave behind. The
// crash-recovery tests and benchmarks reopen the data directory after
// calling it; DROP DATABASE removes the directory after calling it.
func (db *DB) Abort() {
	if db.shut() && db.dur != nil {
		db.dur.wal.Abort()
	}
}

// shut marks the database closed — false if it was already — and stops its
// background jobs, waiting for the runs in flight (the sweep first, a
// sweep may kick a checkpoint): whoever closes the WAL or removes the
// directory next is alone with it.
func (db *DB) shut() bool {
	if !db.closed.CompareAndSwap(false, true) {
		return false
	}
	db.retJob.Stop()
	if db.dur != nil {
		db.dur.ckptJob.Stop()
	}
	return true
}

// dbDirName maps a database name to its directory name under the data
// dir. Names whose escaped form would resolve outside the data directory
// ("." / "..") or collide with the store's own files are refused — a
// handler-auto-created database named ".." must never scatter WAL files
// into the data directory's parent, let alone let DropDatabase RemoveAll
// it.
func dbDirName(name string) (string, error) {
	esc := url.PathEscape(name)
	switch esc {
	case "", ".", "..", "LOCK":
		return "", fmt.Errorf("tsdb: invalid database name %q", name)
	}
	return esc, nil
}

// openDurable recovers a database openLocked has just built — its newest
// checkpoint, then the WAL tail — from its directory under opts.Dir
// (creating it if new), and attaches the WAL later writes append to.
func (db *DB) openDurable(opts Durability) error {
	opts = opts.withDefaults()
	dirName, err := dbDirName(db.name)
	if err != nil {
		return err
	}
	dir := filepath.Join(opts.Dir, dirName)
	snap, floor, err := durable.LoadLatestSnapshot(opts.FS, dir)
	if err != nil {
		return fmt.Errorf("tsdb: open %q: %w", db.name, err)
	}
	if snap != nil {
		db.loadSnapshot(snap)
	}
	wo := opts.walOptions()
	wo.SyncObserver = db.observeFsync
	// A sealed log is an operational event, not just a stream of failed
	// writes: log the reason once, and let the lms_db_wal_sealed gauge
	// (metrics.go, sampling WALSealed at scrape time) raise the alert.
	wo.OnSeal = func(err error) {
		obs.Errorf("tsdb: %s: %v", db.name, err)
	}
	wal, err := durable.OpenWAL(dir, floor, wo, func(payload []byte) error {
		fb, err := db.checkFrame(payload)
		if err != nil {
			return fmt.Errorf("tsdb: WAL replay of %q: %w", db.name, err)
		}
		// Replay feeds the tail through the ordinary columnar write path
		// (shard runBuilders, merges at the cut, rewrite dedup), so the recovered
		// state is bit-for-bit what the pre-crash writes built. Timestamps
		// were resolved before encoding, so the wall clock is never used.
		db.applyFrame(fb)
		fb.release()
		return nil
	})
	if err != nil {
		return fmt.Errorf("tsdb: open %q: %w", db.name, err)
	}
	// A checkpoint written before chunks merged at the cut may hold spans
	// its compaction job had not merged: the one pass over every series
	// settles them while nothing else can see the database.
	db.Compress()
	wal.ExportSync(db.metrics.jobWALSync)
	db.dur = &durability{dir: dir, opts: opts, wal: wal}
	db.dur.lastCkpt.Store(time.Now().UnixNano())
	db.dur.ckptJob.Floor = ckptRetryBackoff
	db.dur.ckptJob.Export(db.metrics.jobCheckpoint)
	db.dur.ckptJob.Every(0, func(context.Context) error { return db.Checkpoint() })
	// Recovery resumes the stream clock: the downtime does not count as
	// idle time for the retention sweep (setRetention).
	db.lastWrite.Store(time.Now().UnixNano())
	return nil
}

// --- in-memory state <-> durable.Snapshot -------------------------------

// buildSnapshot captures the database's full columnar state as a
// durable.Snapshot, every run as a chunk: a chunk hands over its pointer (no
// re-encode on write, no decode on recovery but a head's — DESIGN.md §13),
// a head its streams' bytes, copied out at their exact size. Runs are
// immutable to readers (the same invariants Select's phase 1 relies on), so
// the serialization can proceed outside any lock. Callers must hold the
// durability gate in write mode (or otherwise exclude writers) so the
// capture is an exact WAL prefix.
func (db *DB) buildSnapshot() *durable.Snapshot {
	snap := &durable.Snapshot{}
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, m := range sh.measurements {
			dm := durable.Measurement{Name: m.name, Strs: m.strs.vals[:len(m.strs.vals):len(m.strs.vals)]}
			for _, f := range slices.Sorted(maps.Keys(m.fields)) {
				dm.Fields = append(dm.Fields, durable.FieldSchema{Name: f, Kind: m.fields[f]})
			}
			for _, o := range m.idx.sorted {
				sr := m.idx.slots[o]
				ds := durable.Series{Tags: sr.tags, Runs: append(make([]*compRun, 0, len(sr.runs)+1), sr.runs...)}
				if sr.head != nil {
					ds.Runs = append(ds.Runs, sr.head.chunk())
				}
				dm.Series = append(dm.Series, ds)
			}
			snap.Measurements = append(snap.Measurements, dm)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(snap.Measurements, func(i, j int) bool {
		return snap.Measurements[i].Name < snap.Measurements[j].Name
	})
	return snap
}

// loadSnapshot rebuilds the in-memory columnar state from a checkpoint,
// adopting every run as the chunk it was stored as but each series'
// newest, which becomes its head again (series.adoptHead). Only called
// while the DB is private to the opener (before any reader or writer can
// see it).
func (db *DB) loadSnapshot(snap *durable.Snapshot) {
	newest := int64(minInt64)
	var scratch bitWriter
	for mi := range snap.Measurements {
		dm := &snap.Measurements[mi]
		m := &measurement{
			name:   dm.Name,
			series: make(map[string]*series, len(dm.Series)),
			fields: make(map[string]lineproto.ValueKind, len(dm.Fields)),
			names:  make(map[string]string, len(dm.Fields)),
		}
		for _, f := range dm.Fields {
			m.internField(f.Name, f.Kind)
		}
		m.strs.vals = dm.Strs
		if len(dm.Strs) > 0 {
			m.strs.ids = make(map[string]uint32, len(dm.Strs))
			for id, s := range dm.Strs {
				m.strs.ids[s] = uint32(id)
			}
		}
		for si := range dm.Series {
			ds := &dm.Series[si]
			sr := &series{tags: ds.Tags, runs: ds.Runs}
			if sr.tags == nil {
				sr.tags = map[string]string{}
			}
			for _, c := range ds.Runs {
				// Column headers share one name string per schema field.
				for ci := range c.Cols {
					c.Cols[ci].Name = m.internField(c.Cols[ci].Name, c.Cols[ci].Kind)
				}
				newest = max(newest, c.MaxTS)
			}
			sr.adoptHead(db.metrics, m.strs.vals, &scratch)
			sr.key = seriesKey(sr.tags)
			m.series[sr.key] = sr
		}
		m.idx.rebuild(m.series)
		db.shardFor(dm.Name).measurements[dm.Name] = m
	}
	if newest != int64(minInt64) {
		db.newest.Store(newest)
	}
}

// --- store-level lifecycle ---------------------------------------------

// OpenStore builds a store with the given options and, when durability is
// enabled, recovers every database already present under the data
// directory, so a restarted server answers queries for all of them
// without waiting for a write. The data directory is flock'd for the
// store's lifetime: a second process opening the same directory would
// interleave WAL frames and delete each other's segments, so it is
// refused instead.
func OpenStore(o StoreOptions) (*Store, error) {
	s := NewStore()
	s.StoreOptions = o
	if o.Durability.Dir == "" {
		return s, nil
	}
	s.Durability = o.Durability.withDefaults()
	if err := os.MkdirAll(s.Durability.Dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDataDir(s.Durability.Dir)
	if err != nil {
		return nil, err
	}
	s.dirLock = lock
	entries, err := os.ReadDir(s.Durability.Dir)
	if err != nil {
		s.unlockDataDir()
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil || url.PathEscape(name) != e.Name() {
			// Not a directory this store created: a non-canonical escape
			// would round-trip to a *different* directory name and the
			// store would silently serve (and drop!) the wrong one.
			continue
		}
		if _, err := s.OpenDatabase(name); err != nil {
			s.Abort()
			return nil, err
		}
	}
	return s, nil
}

// lockDataDir takes an exclusive, non-blocking flock on <dir>/LOCK.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsdb: data directory %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

func (s *Store) unlockDataDir() {
	if s.dirLock != nil {
		_ = s.dirLock.Close() // closing drops the flock
		s.dirLock = nil
	}
}

// OpenDatabase creates (or returns the existing) database with that name.
// On a durable store a failure to open the on-disk state — an I/O error,
// a damaged newest checkpoint, a WAL with a bad frame that is not a torn
// tail — is returned naming the file, and nothing is cached, so the next
// call retries.
func (s *Store) OpenDatabase(name string) (*DB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openLocked(name)
}

// openLocked is where every database is born: built with the store's
// shard count, metrics bundle and job stats, recovered from disk on a
// durable store, its retention job armed with the store's window — and
// only then published.
func (s *Store) openLocked(name string) (*DB, error) {
	if db, ok := s.dbs[name]; ok {
		return db, nil
	}
	if s.Durability.Dir != "" && s.closed {
		// The directory flock was released by Close/Abort: opening a fresh
		// durable database now would write into a directory another
		// process may legitimately hold.
		return nil, ErrDBClosed
	}
	db := &DB{
		name:    name,
		shards:  make([]*shard, perCPU(s.ShardsPerDB)),
		metrics: s.metrics,
	}
	for i := range db.shards {
		db.shards[i] = &shard{measurements: make(map[string]*measurement)}
	}
	db.qcache.init()
	db.retJob.Export(s.metrics.jobRetention)
	if s.Durability.Dir != "" {
		if err := db.openDurable(s.Durability); err != nil {
			return nil, err
		}
	}
	if s.Retention > 0 {
		db.setRetention(s.Retention)
	}
	s.dbs[name] = db
	return db, nil
}

// perCPU is n, or one per schedulable CPU when n <= 0: the default shard
// count of a database.
func perCPU(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Close closes every database: final checkpoints are written, WALs
// flushed and closed, and the data directory lock is released. The store
// keeps serving reads of already-open in-memory databases, but durable
// writes fail after Close.
func (s *Store) Close() error {
	var errs []error
	for _, db := range s.snapshotDBs() {
		if err := db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", db.Name(), err))
		}
	}
	s.mu.Lock()
	s.closed = true
	s.unlockDataDir()
	s.mu.Unlock()
	return errors.Join(errs...)
}

// Abort closes every database without flushing or checkpointing,
// simulating a process crash (see DB.Abort). The directory lock is
// released (a real crash releases a flock too).
func (s *Store) Abort() {
	for _, db := range s.snapshotDBs() {
		db.Abort()
	}
	s.mu.Lock()
	s.closed = true
	s.unlockDataDir()
	s.mu.Unlock()
}

func (s *Store) snapshotDBs() []*DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dbs := make([]*DB, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	return dbs
}
