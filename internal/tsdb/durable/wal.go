package durable

// Segmented write-ahead log. One WAL is a directory of numbered segment
// files:
//
//	wal-00000001.log, wal-00000002.log, ...
//
// Each segment starts with an 8-byte magic header and then holds framed
// records:
//
//	[4B little-endian payload length][4B CRC32 (IEEE) of payload][payload]
//
// Appends go to the newest segment; past Options.SegmentBytes the log
// rotates to a fresh one. Checkpoints rotate explicitly and then delete
// every segment below the checkpoint's replay floor, so the on-disk log
// only ever covers data not yet captured by a checkpoint.
//
// Recovery reads the segments in order and validates every frame. A bad
// frame — short header, implausible length, CRC mismatch — in the newest
// segment that holds frames is where a crash tore the log: the segment is
// truncated right there, the frameless segments after it (a rotation a
// crash cut short, or one a sealed log made) are dropped, and everything
// before it (the acknowledged prefix) replays. Rotation fsyncs a segment
// before starting the next, so a bad frame with frames in a later segment
// is media corruption, not a tear: recovery fails naming the segment and
// the offset, and touches no file.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fsys"
	"repro/internal/obs"
)

const (
	segMagic      = "LMSWAL1\n" // 8 bytes
	frameOverhead = 8           // length + CRC32
	maxFrameBytes = 1 << 30
)

// ErrClosed is returned by appends to a closed WAL.
var ErrClosed = errors.New("durable: WAL is closed")

func segmentName(idx int) string { return fmt.Sprintf("wal-%08d.log", idx) }

func parseSegmentName(name string) (int, bool) {
	var idx int
	if n, err := fmt.Sscanf(name, "wal-%08d.log", &idx); n != 1 || err != nil {
		return 0, false
	}
	if segmentName(idx) != name {
		return 0, false
	}
	return idx, true
}

// WAL is one open write-ahead log.
type WAL struct {
	dir  string
	opts Options
	fs   fsys.FS // opts.FS after defaulting; every file op goes through it

	mu      sync.Mutex
	f       fsys.File     // newest segment, open for append
	seg     int           // index of the newest segment
	sizes   map[int]int64 // per-segment byte size
	buf     []byte        // scratch frame buffer, reused across appends
	dirty   bool          // unsynced appends (FsyncEveryInterval)
	closed  bool
	failErr error // latched write/sync failure; the log refuses appends after one

	// Group commit (FsyncPerBatch): frames are numbered by writeSeq;
	// syncedSeq is the highest frame known durable. syncMu serializes the
	// fsyncs themselves, outside mu, so one fsync acknowledges every
	// frame written before it started and queued writers skip theirs.
	writeSeq  int64 // guarded by mu
	syncedSeq int64 // guarded by mu
	syncMu    sync.Mutex

	// syncJob is the FsyncEveryInterval background syncer; Close and Abort
	// stop it and wait before they touch the segment.
	syncJob obs.Job
}

// OpenWAL opens (or creates) the log in dir. Segments below floor are
// covered by a checkpoint and deleted unread. The surviving segments are
// replayed in order through fn (nil fn validates and positions the log
// without handing payloads out); the payload slice passed to fn is only
// valid during the call. A torn tail is truncated, and a bad frame with
// frames behind it fails the open, as described in the file comment. After
// OpenWAL returns, the WAL is positioned for appends.
func OpenWAL(dir string, floor int, o Options, fn func(payload []byte) error) (*WAL, error) {
	o = o.withDefaults()
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := o.FS.ReadDirNames(dir)
	if err != nil {
		return nil, err
	}
	var segs, covered []int
	for _, name := range names {
		if idx, ok := parseSegmentName(name); ok && idx < floor {
			covered = append(covered, idx)
		} else if ok {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)

	w := &WAL{dir: dir, opts: o, fs: o.FS, sizes: make(map[int]int64)}
	for i, idx := range segs {
		size, defect, err := w.replaySegment(idx, fn)
		if err != nil {
			return nil, err
		}
		w.sizes[idx] = size
		w.seg = idx
		if defect != "" {
			if err := w.cutTornTail(idx, defect, segs[i+1:]); err != nil {
				return nil, err
			}
			break
		}
	}
	for _, idx := range covered {
		if err := w.fs.Remove(filepath.Join(dir, segmentName(idx))); err != nil {
			return nil, err
		}
	}
	if len(covered) > 0 {
		// Make the deletions durable: a crash must not resurrect
		// checkpoint-covered segments that a later recovery would replay.
		if err := w.fs.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	if w.seg == 0 {
		w.seg = floor
		if w.seg < 1 {
			w.seg = 1
		}
		if err := w.createSegment(w.seg); err != nil {
			return nil, err
		}
	} else if err := w.openForAppend(); err != nil {
		return nil, err
	}
	if o.Fsync == FsyncEveryInterval {
		w.syncJob.Every(o.FsyncInterval, w.syncDirty)
	}
	return w, nil
}

// replaySegment validates the frames of one segment, feeding payloads to
// fn. It returns the size of the valid prefix and, when a bad frame ends
// it short of the file's end, what is wrong with that frame.
func (w *WAL) replaySegment(idx int, fn func([]byte) error) (int64, string, error) {
	data, err := w.fs.ReadFile(filepath.Join(w.dir, segmentName(idx)))
	if err != nil {
		return 0, "", err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, "bad segment header", nil
	}
	off := len(segMagic)
	for off < len(data) {
		if len(data)-off < frameOverhead {
			return int64(off), "torn frame header", nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrameBytes || off+frameOverhead+n > len(data) {
			return int64(off), "implausible length or torn payload", nil
		}
		payload := data[off+frameOverhead : off+frameOverhead+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return int64(off), "CRC mismatch", nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, "", err
			}
		}
		off += frameOverhead + n
	}
	return int64(off), "", nil
}

// cutTornTail truncates segment idx at its bad frame (offset w.sizes[idx])
// and deletes the segments after it, if none of them holds a frame.
// Rotation fsyncs a segment before it starts the next, so a crash tears
// only the newest segment with frames; a bad frame with frames behind it is
// media corruption, and cutting there would drop acknowledged records, so
// that fails before any file is touched.
func (w *WAL) cutTornTail(idx int, defect string, later []int) error {
	path := filepath.Join(w.dir, segmentName(idx))
	for _, l := range later {
		data, err := w.fs.ReadFile(filepath.Join(w.dir, segmentName(l)))
		if err != nil {
			return err
		}
		if len(data) > len(segMagic) {
			return fmt.Errorf("durable: WAL segment %s: %s at offset %d, but %s holds frames after it: the log is corrupt, not torn",
				path, defect, w.sizes[idx], segmentName(l))
		}
	}
	if err := w.fs.Truncate(path, w.sizes[idx]); err != nil {
		return err
	}
	for _, l := range later {
		if err := w.fs.Remove(filepath.Join(w.dir, segmentName(l))); err != nil {
			return err
		}
	}
	// The repair itself must be durable: a crash right after recovery must
	// not resurrect the corrupt tail, or a later recovery would cut the log
	// there again, dropping everything acked after this point. Fsync the
	// file (its new size) and the directory before appending behind it.
	if err := w.fs.SyncFile(path); err != nil {
		return err
	}
	return w.fs.SyncDir(w.dir)
}

// createSegment starts segment idx as the append target. The handle is
// only installed once the segment is fully established (header written,
// directory entry synced): a failure part-way leaves the WAL on its old
// state rather than appending into a segment that may not survive a
// crash.
func (w *WAL) createSegment(idx int) error {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segmentName(idx)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if w.opts.Fsync != FsyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.seg = idx
	w.sizes[idx] = int64(len(segMagic))
	return nil
}

// openForAppend positions the newest (already validated) segment for
// appends. A segment whose header itself was torn has size 0 and gets the
// header rewritten.
func (w *WAL) openForAppend() error {
	path := filepath.Join(w.dir, segmentName(w.seg))
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	if w.sizes[w.seg] == 0 {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			return err
		}
		w.sizes[w.seg] = int64(len(segMagic))
	}
	return nil
}

// syncFile fsyncs one file handle, reporting the latency to the
// configured observer (Options.SyncObserver). Every durability-relevant
// sync of the log goes through here so the exported fsync histogram sees
// group commits, interval syncs, rotations and Close alike.
func (w *WAL) syncFile(f fsys.File) error {
	if obs := w.opts.SyncObserver; obs != nil {
		start := time.Now()
		err := f.Sync()
		obs(time.Since(start))
		return err
	}
	return f.Sync()
}

// sealLocked latches the first fatal error: the log refuses every later
// append (the failed or partial operation may have left a torn frame, or
// dirty pages in unknown state, and appending behind it would silently
// vanish on replay). Fires Options.OnSeal exactly once, on the first
// seal. Callers hold w.mu.
func (w *WAL) sealLocked(what string, err error) error {
	if w.failErr == nil {
		w.failErr = fmt.Errorf("durable: WAL %s failed, log sealed: %w", what, err)
		if w.opts.OnSeal != nil {
			w.opts.OnSeal(w.failErr)
		}
	}
	return w.failErr
}

// Sealed reports the latched error that sealed the log against appends,
// or nil for a healthy (or merely closed) log. The tsdb layer exports it
// as the lms_db_wal_sealed gauge.
func (w *WAL) Sealed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failErr != nil && !errors.Is(w.failErr, ErrClosed) {
		return w.failErr
	}
	return nil
}

// Append writes one framed record and, under FsyncPerBatch, does not
// return until the record is on stable storage — the write may be
// acknowledged once Append returns. Concurrent appenders group-commit:
// the fsync runs outside the write lock and covers every frame written
// before it started, so N queued batches pay ~one flush, not N. Append
// reports the segment and the offset just past the record's last byte
// (crash-injection tests cut the file at offsets derived from these).
func (w *WAL) Append(payload []byte) (seg int, end int64, err error) {
	w.mu.Lock()
	seg, end, seq, err := w.appendLocked(payload)
	perBatch := w.opts.Fsync == FsyncPerBatch
	w.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	if perBatch {
		if err := w.syncThrough(seq); err != nil {
			return 0, 0, err
		}
	}
	return seg, end, nil
}

func (w *WAL) appendLocked(payload []byte) (seg int, end int64, seq int64, err error) {
	if w.closed {
		return 0, 0, 0, ErrClosed
	}
	if w.failErr != nil {
		// A failed or partial write left a (possibly torn) frame on disk.
		// Recovery truncates at the first bad frame, so anything appended
		// after it would silently vanish on replay — refuse instead.
		return 0, 0, 0, w.failErr
	}
	if w.sizes[w.seg] >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, 0, 0, err
		}
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, payload...)
	n, err := w.f.Write(w.buf)
	w.sizes[w.seg] += int64(n) // a partial write leaves a torn frame for recovery to cut
	if err != nil {
		w.sealLocked("write", err)
		return 0, 0, 0, err
	}
	w.writeSeq++
	if w.opts.Fsync != FsyncPerBatch {
		w.dirty = true
	}
	return w.seg, w.sizes[w.seg], w.writeSeq, nil
}

// syncThrough blocks until frame seq is durable. Whoever holds syncMu
// fsyncs once for the whole queue: a waiter whose frame was covered by an
// earlier group leader (or by a rotation's sync) returns without touching
// the disk.
func (w *WAL) syncThrough(seq int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.syncedSeq >= seq {
		w.mu.Unlock()
		return nil
	}
	if w.closed {
		// Close/Abort ran between the write and here; Close syncs before
		// closing, so either the frame is durable (failErr nil) or the
		// latched error tells the story.
		err := w.failErr
		w.mu.Unlock()
		return err
	}
	f := w.f
	top := w.writeSeq
	w.mu.Unlock()
	err := w.syncFile(f)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.syncedSeq >= seq {
			// A rotation (or Close) synced past our frame while we raced
			// with a stale handle; the frame is durable, the error moot.
			return nil
		}
		// fsync failure: the kernel may have dropped the dirty pages, so
		// the frame's on-disk fate is unknown. Seal the log.
		return w.sealLocked("fsync", err)
	}
	if top > w.syncedSeq {
		w.syncedSeq = top
	}
	return nil
}

// Rotate cuts the log to a fresh segment and returns the new segment's
// index: every record appended before the call lives in segments strictly
// below it. Checkpoints rotate first, so the returned index is the replay
// floor the checkpoint file is named after. A current segment holding no
// records is reused instead of cut — repeated checkpoints with no traffic
// in between (retries against a full disk included) must not grow an
// unbounded trail of empty segment files.
func (w *WAL) Rotate() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.sizes[w.seg] <= int64(len(segMagic)) {
		return w.seg, nil
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seg, nil
}

func (w *WAL) rotateLocked() error {
	// Any failure mid-rotation seals the log: after a failed sync the old
	// segment's dirty pages are in unknown state, and after a failed
	// close or create the append target is gone or half-established
	// (e.g. a new segment whose directory entry never hit the platter —
	// appending into it would ack frames a power cut then deletes
	// wholesale). Sealing forces a recovery instead of guessing.
	if err := w.syncFile(w.f); err != nil {
		w.sealLocked("fsync", err)
		return err
	}
	if err := w.f.Close(); err != nil {
		w.sealLocked("rotate", err)
		return err
	}
	w.dirty = false
	w.syncedSeq = w.writeSeq // the closed segment's frames are durable
	if err := w.createSegment(w.seg + 1); err != nil {
		w.sealLocked("rotate", err)
		return err
	}
	return nil
}

// RemoveBelow deletes every segment with an index below floor (the
// segments a just-written checkpoint covers) and syncs the directory so
// the deletions stick. A crash-resurrected segment would be deleted
// again unread at the next open (it is below the checkpoint floor), so a
// failure here is reported but nothing is sealed.
func (w *WAL) RemoveBelow(floor int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := false
	for idx := range w.sizes {
		if idx >= floor {
			continue
		}
		if err := w.fs.Remove(filepath.Join(w.dir, segmentName(idx))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		removed = true
		delete(w.sizes, idx)
	}
	if removed {
		return w.fs.SyncDir(w.dir)
	}
	return nil
}

// TotalSize returns the byte size of the log across all live segments.
func (w *WAL) TotalSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := int64(0)
	for _, s := range w.sizes {
		total += s
	}
	return total
}

// CurrentSegment returns the index of the append segment.
func (w *WAL) CurrentSegment() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}

// SegmentPath returns the file path of segment idx (crash-injection tests
// truncate and corrupt segments through it).
func (w *WAL) SegmentPath(idx int) string {
	return filepath.Join(w.dir, segmentName(idx))
}

// Close syncs outstanding records and closes the log.
func (w *WAL) Close() error {
	w.syncJob.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncFile(w.f)
	if err == nil {
		w.syncedSeq = w.writeSeq
	} else {
		w.sealLocked("fsync", err)
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the log without syncing, simulating a crash: records the
// OS has not flushed yet are at the kernel's mercy, exactly as if the
// process had died. Crash-recovery tests and benchmarks use it in place
// of Close.
func (w *WAL) Abort() {
	w.syncJob.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	if w.failErr == nil {
		w.failErr = ErrClosed // racing group-commit waiters must not report durable
	}
	_ = w.f.Close()
}

// syncDirty is one run of the FsyncEveryInterval syncer. The documented
// loss bound is one interval (plus one fsync); a disk that stops syncing
// must seal the log so appends start failing, not silently widen the
// window.
func (w *WAL) syncDirty(context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.dirty || w.closed {
		return nil
	}
	if err := w.syncFile(w.f); err != nil {
		return w.sealLocked("fsync", err)
	}
	w.dirty = false
	w.syncedSeq = w.writeSeq
	return nil
}

// ExportSync counts the interval syncer's runs into s (the wal_sync job of
// /metrics).
func (w *WAL) ExportSync(s *obs.JobStats) { w.syncJob.Export(s) }
