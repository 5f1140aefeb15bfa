package durable

// Fault-injection sweeps (DESIGN.md §11). The style follows the
// cut-at-every-byte recovery tests: rehearse a deterministic workload
// once on a clean faultfs to learn how many filesystem operations it
// issues, then re-run it once per operation index with a fault injected
// exactly there — EIO, ENOSPC, a short write, or a power cut — and
// assert the ack invariant every time:
//
//   - every acknowledged append survives recovery (byte-identical,
//     in order), and
//   - recovery only ever yields a prefix of the attempted appends —
//     a failed append may survive (it was fully framed before the
//     fault), but nothing is reordered, invented, or half-replayed.
//
// Under FsyncPerBatch the invariant additionally holds across a power
// cut that discards every unsynced byte: an append is only acknowledged
// after its fsync, so the acked prefix is durable by construction — or
// the log seals and the ack never happens.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/faultfs"
)

const faultWALDir = "wal"

// faultPayloads is the deterministic append sequence: varying sizes so
// frames straddle write boundaries, small segments so the sweep crosses
// size-based rotation, plus one explicit Rotate mid-stream (the
// checkpoint pattern).
func faultPayloads() [][]byte {
	out := make([][]byte, 10)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("payload-%02d-%s", i, bytes.Repeat([]byte{byte('a' + i)}, 5*i)))
	}
	return out
}

// driveWAL runs the workload on f, returning the payloads whose Append
// was acknowledged. Failed appends keep going: the sweep wants to see
// the sealed log refuse them, not stop at the first error. The WAL is
// abandoned with Abort — the no-flush path a crash takes.
func driveWAL(f *faultfs.FS) (acked [][]byte) {
	o := Options{Fsync: FsyncPerBatch, SegmentBytes: 96, FS: f}
	w, err := OpenWAL(faultWALDir, 0, o, nil)
	if err != nil {
		return nil
	}
	for i, p := range faultPayloads() {
		if i == 6 {
			_, _ = w.Rotate()
		}
		if _, _, err := w.Append(p); err == nil {
			acked = append(acked, p)
		}
	}
	w.Abort()
	return acked
}

// recoverWAL reopens the log with faults disarmed and returns the
// replayed payloads.
func recoverWAL(t *testing.T, f *faultfs.FS) [][]byte {
	t.Helper()
	var got [][]byte
	w, err := OpenWAL(faultWALDir, 0, Options{Fsync: FsyncPerBatch, FS: f}, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	w.Abort()
	return got
}

// assertAckedPrefix enforces the two-sided oracle described in the file
// comment.
func assertAckedPrefix(t *testing.T, desc string, acked, replayed [][]byte) {
	t.Helper()
	attempted := faultPayloads()
	if len(replayed) < len(acked) {
		t.Fatalf("%s: %d acked appends but only %d replayed", desc, len(acked), len(replayed))
	}
	if len(replayed) > len(attempted) {
		t.Fatalf("%s: replay invented %d records (attempted %d)", desc, len(replayed), len(attempted))
	}
	for i, p := range replayed {
		if !bytes.Equal(p, attempted[i]) {
			t.Fatalf("%s: replayed[%d] = %q, want %q", desc, i, p, attempted[i])
		}
	}
}

// driveWALClean runs the workload expecting every append to ack.
func driveWALClean(t *testing.T, f *faultfs.FS) [][]byte {
	t.Helper()
	acked := driveWAL(f)
	if len(acked) != len(faultPayloads()) {
		t.Fatalf("clean run acked %d/%d appends", len(acked), len(faultPayloads()))
	}
	return acked
}

// rehearseWAL counts the operations of a clean run (and sanity-checks
// that a fault-free workload acks everything).
func rehearseWAL(t *testing.T) int64 {
	t.Helper()
	f := faultfs.New()
	acked := driveWALClean(t, f)
	assertAckedPrefix(t, "rehearsal", acked, recoverWAL(t, f))
	return f.Ops()
}

// TestWALFaultSweepEIO injects a transient EIO at every operation index.
// The process survives (no power cut): recovery sees the volatile state,
// torn tail and all.
func TestWALFaultSweepEIO(t *testing.T) {
	ops := rehearseWAL(t)
	for idx := int64(0); idx < ops; idx++ {
		f := faultfs.New()
		f.FailOp(idx, faultfs.ErrIO)
		acked := driveWAL(f)
		f.SetInject(nil)
		assertAckedPrefix(t, fmt.Sprintf("EIO at op %d", idx), acked, recoverWAL(t, f))
	}
}

// TestWALFaultSweepShortWrite makes the write at every index land only
// half its bytes — the torn-frame case the CRC framing exists for.
// Non-write operations at the index fail outright instead.
func TestWALFaultSweepShortWrite(t *testing.T) {
	ops := rehearseWAL(t)
	for idx := int64(0); idx < ops; idx++ {
		f := faultfs.New()
		f.SetInject(func(i faultfs.Info) *faultfs.Fault {
			if i.Index != idx {
				return nil
			}
			if i.Op == faultfs.OpWrite {
				return &faultfs.Fault{Err: faultfs.ErrIO, Keep: i.Size / 2}
			}
			return &faultfs.Fault{Err: faultfs.ErrIO}
		})
		acked := driveWAL(f)
		f.SetInject(nil)
		assertAckedPrefix(t, fmt.Sprintf("short write at op %d", idx), acked, recoverWAL(t, f))
	}
}

// TestWALFaultSweepENOSPC fills the disk at every byte budget from zero
// to one past the workload's total footprint.
func TestWALFaultSweepENOSPC(t *testing.T) {
	rehearse := faultfs.New()
	total := int64(0)
	rehearse.SetInject(func(i faultfs.Info) *faultfs.Fault {
		if i.Op == faultfs.OpWrite {
			total += int64(i.Size)
		}
		return nil
	})
	if acked := driveWAL(rehearse); len(acked) != len(faultPayloads()) {
		t.Fatalf("clean rehearsal acked %d/%d appends", len(acked), len(faultPayloads()))
	}
	for budget := int64(0); budget <= total+1; budget++ {
		f := faultfs.New()
		f.SetDiskBudget(budget)
		acked := driveWAL(f)
		f.SetDiskBudget(-1) // the operator freed disk space
		assertAckedPrefix(t, fmt.Sprintf("ENOSPC after %d bytes", budget), acked, recoverWAL(t, f))
	}
}

// TestWALFaultSweepPowerCut kills the machine at every operation index:
// the op and everything after it fail, then Crash() discards every
// unsynced byte and every unsynced directory entry before recovery.
// FsyncPerBatch acks only after fsync, so the acked prefix must still be
// there.
func TestWALFaultSweepPowerCut(t *testing.T) {
	ops := rehearseWAL(t)
	for idx := int64(0); idx <= ops; idx++ {
		f := faultfs.New()
		f.KillAtOp(idx)
		acked := driveWAL(f)
		f.SetInject(nil)
		f.Crash()
		assertAckedPrefix(t, fmt.Sprintf("power cut at op %d", idx), acked, recoverWAL(t, f))
	}
}

// TestTornTailRepairIsDurable pins the repair-durability satellite: when
// recovery truncates a corrupt tail, it must fsync the file and the
// directory before handing the log out, so a crash immediately after
// recovery — before any append has synced the segment as a side effect —
// cannot resurrect the corrupt bytes.
func TestTornTailRepairIsDurable(t *testing.T) {
	f := faultfs.New()
	acked := driveWALClean(t, f)

	// Durably corrupt the newest segment's tail, as a torn multi-frame
	// write followed by an fsync-happy filesystem would.
	w, err := OpenWAL(faultWALDir, 0, Options{Fsync: FsyncPerBatch, FS: f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg := w.CurrentSegment()
	w.Abort()
	path := w.SegmentPath(seg)
	h, err := f.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("\xde\xad\xbe\xef torn tail garbage")
	if _, err := h.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// Recovery repairs the tail...
	assertAckedPrefix(t, "repair", acked, recoverWAL(t, f))
	// ...and the repair must survive an immediate power cut: the durable
	// view of the segment must not hold the garbage anymore.
	f.Crash()
	data, err := f.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, garbage[:4]) {
		t.Fatalf("crash after recovery resurrected the corrupt tail (%d bytes)", len(data))
	}
	assertAckedPrefix(t, "repair after crash", acked, recoverWAL(t, f))
}

// TestSnapshotFaultSweep drives WriteSnapshot into a fault at every
// operation index, then cuts the power. Whatever happens, recovery must
// land on a valid checkpoint: the new one if WriteSnapshot reported
// success (its durability contract), otherwise either the old or the new
// one — never nothing, never a corrupt hybrid.
func TestSnapshotFaultSweep(t *testing.T) {
	dir := "ckpt"
	older := &Snapshot{Measurements: []Measurement{{
		Name:   "cpu",
		Fields: []FieldSchema{{Name: "user", Kind: 0}},
		Series: []Series{{Tags: map[string]string{"host": "a"},
			Runs: []Run{{Ts: []int64{1, 2, 3}, Cols: []Col{{Name: "user", Values: Values{Floats: []float64{1, 2, 3}}}}}}}},
	}}}
	newer := &Snapshot{Measurements: []Measurement{{
		Name:   "mem",
		Fields: []FieldSchema{{Name: "used", Kind: 0}},
		Series: []Series{{Tags: map[string]string{"host": "b"},
			Runs: []Run{{Ts: []int64{9}, Cols: []Col{{Name: "used", Values: Values{Floats: []float64{42}}}}}}}},
	}}}

	// Rehearse: ops consumed writing the older checkpoint, then the newer.
	rehearse := faultfs.New()
	if err := WriteSnapshot(rehearse, dir, 3, older); err != nil {
		t.Fatal(err)
	}
	base := rehearse.Ops()
	if err := WriteSnapshot(rehearse, dir, 9, newer); err != nil {
		t.Fatal(err)
	}
	ops := rehearse.Ops() - base

	for idx := int64(0); idx <= ops; idx++ {
		for _, cut := range []bool{false, true} {
			f := faultfs.New()
			if err := WriteSnapshot(f, dir, 3, older); err != nil {
				t.Fatal(err)
			}
			if cut {
				f.KillAtOp(base + idx)
			} else {
				f.FailOp(base+idx, faultfs.ErrIO)
			}
			werr := WriteSnapshot(f, dir, 9, newer)
			f.SetInject(nil)
			if cut {
				f.Crash()
			}
			got, seg, err := LoadLatestSnapshot(f, dir)
			if err != nil {
				t.Fatalf("cut=%v op %d: load after fault: %v", cut, idx, err)
			}
			switch {
			case werr == nil && cut:
				// WriteSnapshot's contract: success means durable.
				if seg != 9 {
					t.Fatalf("cut=%v op %d: WriteSnapshot acked but recovery loaded seg %d", cut, idx, seg)
				}
			case got == nil:
				t.Fatalf("cut=%v op %d: both checkpoints gone (werr=%v)", cut, idx, werr)
			case seg != 3 && seg != 9:
				t.Fatalf("cut=%v op %d: loaded unexpected seg %d", cut, idx, seg)
			}
			if got == nil || len(got.Measurements) != 1 {
				t.Fatalf("cut=%v op %d: invalid snapshot %+v", cut, idx, got)
			}
			want := "cpu"
			if seg == 9 {
				want = "mem"
			}
			if got.Measurements[0].Name != want {
				t.Fatalf("cut=%v op %d: seg %d holds measurement %q", cut, idx, seg, got.Measurements[0].Name)
			}
		}
	}
}
