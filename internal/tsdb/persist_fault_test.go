package tsdb

// Whole-engine fault-injection sweeps (DESIGN.md §11): the corpus write
// sequence runs through the real durable engine — WriteBatchContext's
// log-then-apply path, a mid-stream checkpoint, WAL rotations — on a
// faultfs, with a fault injected at every filesystem operation index.
// After the fault (and, in the power-cut variant, after every unsynced
// byte is discarded), the engine recovers and its full /query fingerprint
// must be byte-identical to an in-memory oracle holding some batch prefix
// of at least every acknowledged batch: a failed write may survive, but
// an acknowledged one may never be lost, reordered or half-applied.

import (
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/tsdb/durable"
)

// faultDurability is the engine configuration of the sweeps: per-batch
// fsync (the policy whose ack is a durability promise), segments small
// enough that the corpus crosses rotations, and the checkpoint trigger
// out of reach so the only checkpoint is the deterministic explicit one.
func faultDurability(f *faultfs.FS) Durability {
	return Durability{Dir: "data", Fsync: durable.FsyncPerBatch, SegmentBytes: 2048, FS: f}
}

// openFaultDB opens database "lms" on a store running on f. Not through
// OpenStore: its MkdirAll, LOCK flock and ReadDir go to the real disk, not
// Durability.FS.
func openFaultDB(f *faultfs.FS) (*Store, *DB, error) {
	st := NewStore()
	st.ShardsPerDB = 4
	st.Durability = faultDurability(f)
	db, err := st.OpenDatabase("lms")
	return st, db, err
}

// driveEngine writes the corpus through a durable DB on f with a
// checkpoint midway, returning how many batches were acknowledged.
// Failed batches keep going — the sweep wants the sealed WAL to refuse
// them, not the workload to stop.
func driveEngine(f *faultfs.FS) (acked int) {
	_, db, err := openFaultDB(f)
	if err != nil {
		return 0
	}
	batches := corpusBatches()
	for i, b := range batches {
		if i == len(batches)/2 {
			_ = db.Checkpoint()
		}
		if err := db.WriteBatchContext(bg, b); err == nil {
			acked++
		}
	}
	db.Abort()
	return acked
}

// recoverFingerprint reopens the engine on f (faults disarmed) and
// renders the full corpus-query fingerprint of the recovered state.
func recoverFingerprint(t *testing.T, f *faultfs.FS) string {
	t.Helper()
	st, db, err := openFaultDB(f)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	fp := queryFingerprint(t, st, "lms")
	db.Abort()
	return fp
}

// oracleFingerprints precomputes the fingerprint of every batch prefix:
// index k holds the state after acking exactly the first k batches.
func oracleFingerprints(t *testing.T) []string {
	t.Helper()
	batches := corpusBatches()
	fps := make([]string, len(batches)+1)
	for k := 0; k <= len(batches); k++ {
		fps[k] = queryFingerprint(t, memoryOracle(t, batches[:k]), "lms")
	}
	return fps
}

// runEngineFaultSweep rehearses the workload to learn its operation
// count, then re-runs it once per index with arm(f, idx) installing the
// fault, asserting the recovered state is a batch prefix covering every
// ack.
func runEngineFaultSweep(t *testing.T, cut bool, arm func(f *faultfs.FS, idx int64)) {
	t.Helper()
	// The sweeps seal the WAL hundreds of times; keep the per-seal log
	// line (openDurable's OnSeal) out of the test output.
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	rehearse := faultfs.New()
	if n := driveEngine(rehearse); n != len(corpusBatches()) {
		t.Fatalf("clean rehearsal acked %d/%d batches", n, len(corpusBatches()))
	}
	ops := rehearse.Ops()
	fps := oracleFingerprints(t)

	for idx := int64(0); idx <= ops; idx++ {
		f := faultfs.New()
		arm(f, idx)
		acked := driveEngine(f)
		f.SetInject(nil)
		if cut {
			f.Crash()
		}
		fp := recoverFingerprint(t, f)
		k := -1
		for i, want := range fps {
			if fp == want {
				k = i
				break
			}
		}
		if k < 0 {
			t.Fatalf("cut=%v op %d: recovered state matches no batch prefix (%d acked)", cut, idx, acked)
		}
		if k < acked {
			t.Fatalf("cut=%v op %d: %d batches acked but recovery holds only %d — acked data lost", cut, idx, acked, k)
		}
	}
}

// TestEngineFaultSweepEIO: transient I/O error at every operation, no
// crash — recovery sees the volatile (page-cache) state.
func TestEngineFaultSweepEIO(t *testing.T) {
	runEngineFaultSweep(t, false, func(f *faultfs.FS, idx int64) {
		f.FailOp(idx, faultfs.ErrIO)
	})
}

// TestEngineFaultSweepENOSPC: the disk fills at every operation — writes
// land half their bytes and fail with ENOSPC, everything else errors.
// The operator then frees space (fault disarmed) and the engine restarts.
func TestEngineFaultSweepENOSPC(t *testing.T) {
	runEngineFaultSweep(t, false, func(f *faultfs.FS, idx int64) {
		f.SetInject(func(i faultfs.Info) *faultfs.Fault {
			if i.Index != idx {
				return nil
			}
			if i.Op == faultfs.OpWrite {
				return &faultfs.Fault{Err: faultfs.ErrNoSpace, Keep: i.Size / 2}
			}
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		})
	})
}

// TestWALSealedGaugeAndRefusal pins the seal observability satellite: a
// fault that seals the WAL must flip WALSealed and the lms_db_wal_sealed
// gauge on /metrics to 1, and every later write must be refused — no
// silent ack-after-failure, and no sealed database hiding behind a
// healthy-looking scrape.
func TestWALSealedGaugeAndRefusal(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	f := faultfs.New()
	st, db, err := openFaultDB(f)
	if err != nil {
		t.Fatal(err)
	}

	batches := corpusBatches()
	if err := db.WriteBatchContext(bg, batches[0]); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	if db.WALSealed() != nil {
		t.Fatalf("healthy WAL reports sealed: %v", db.WALSealed())
	}
	if got := scrapeMetric(t, st, `lms_db_wal_sealed{db="lms"}`); got != "0" {
		t.Fatalf("healthy gauge = %s, want 0", got)
	}

	// Every fsync now fails: the next write must seal the log.
	f.SetInject(func(i faultfs.Info) *faultfs.Fault {
		if i.Op == faultfs.OpSync {
			return &faultfs.Fault{Err: faultfs.ErrIO}
		}
		return nil
	})
	if err := db.WriteBatchContext(bg, batches[1]); err == nil {
		t.Fatal("write acked through a failing fsync")
	}
	if db.WALSealed() == nil {
		t.Fatal("failed fsync did not seal the WAL")
	}
	if got := scrapeMetric(t, st, `lms_db_wal_sealed{db="lms"}`); got != "1" {
		t.Fatalf("sealed gauge = %s, want 1", got)
	}

	// The disk recovers, but the seal must hold until restart.
	f.SetInject(nil)
	if err := db.WriteBatchContext(bg, batches[2]); err == nil {
		t.Fatal("sealed WAL acknowledged a write")
	}
	db.Abort()

	// After a power cut (the sealed frame never fsynced), recovery holds
	// exactly the one acked batch.
	f.Crash()
	fp := recoverFingerprint(t, f)
	if want := queryFingerprint(t, memoryOracle(t, batches[:1]), "lms"); fp != want {
		t.Fatal("recovered state does not match the acked prefix")
	}
}

// TestWriteStorageFailureIs500: /write answers a write the storage failed
// — a WAL sealed by a failed fsync, a closed database — with 500, which an
// InfluxDB-protocol writer retries. A 400 would tell it to drop the batch.
// What the writer sent wrong stays 400 (TestHTTPWriteErrors, the frame
// door's refusals in frame_test.go).
func TestWriteStorageFailureIs500(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	f := faultfs.New()
	st, db, err := openFaultDB(f)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st)
	write := func(what string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/write?db=lms", strings.NewReader("cpu,hostname=h1 v=1 1\n")))
		if rec.Code != want {
			t.Fatalf("%s: status %d (%s), want %d", what, rec.Code, strings.TrimSpace(rec.Body.String()), want)
		}
	}
	write("healthy", http.StatusNoContent)

	f.SetInject(func(i faultfs.Info) *faultfs.Fault {
		if i.Op == faultfs.OpSync {
			return &faultfs.Fault{Err: faultfs.ErrIO}
		}
		return nil
	})
	write("failing fsync", http.StatusInternalServerError)
	f.SetInject(nil)
	write("sealed WAL", http.StatusInternalServerError)

	db.Abort()
	write("closed database", http.StatusInternalServerError)
}

// scrapeMetric renders /metrics and returns the value of one series.
func scrapeMetric(t *testing.T, st *Store, series string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	st.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, rec.Body.String())
	return ""
}

// TestEngineFaultSweepPowerCut: the machine dies at every operation and
// reboots having kept only fsynced bytes and fsynced directory entries.
// Under fsync=batch this is the strongest claim the engine makes: every
// acknowledged batch must still be there.
func TestEngineFaultSweepPowerCut(t *testing.T) {
	runEngineFaultSweep(t, true, func(f *faultfs.FS, idx int64) {
		f.KillAtOp(idx)
	})
}

// TestFailedCheckpointIsTraced: the checkpoint an operator goes looking
// for in /debug/traces is the one that failed. A snapshot write that dies
// on the disk must still publish its tsdb.checkpoint trace, with the
// error on the span of the step that failed.
func TestFailedCheckpointIsTraced(t *testing.T) {
	f := faultfs.New()
	st, db, err := openFaultDB(f)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Abort()
	ring := obs.NewTraceRing(4)
	st.SetTraces(ring)
	if err := db.WriteBatchContext(bg, corpusBatches()[0]); err != nil {
		t.Fatal(err)
	}

	f.SetInject(func(i faultfs.Info) *faultfs.Fault {
		if strings.HasSuffix(i.Path, ".snap.tmp") {
			return &faultfs.Fault{Err: errors.New("disk on fire")}
		}
		return nil
	})
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a failing disk")
	}
	for _, d := range ring.Snapshot(0, 0) {
		if d.Name != "tsdb.checkpoint" {
			continue
		}
		for _, sp := range d.Spans {
			if sp.Name == "tsdb.checkpoint.write" && strings.Contains(sp.Attr("error"), "disk on fire") {
				return
			}
		}
		t.Fatalf("failed checkpoint traced without the error: %+v", d.Spans)
	}
	t.Fatalf("failed checkpoint left no trace in the ring: %+v", ring.Snapshot(0, 0))
}
