package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func collectWAL(t *testing.T, dir string, floor int, o Options) (*WAL, [][]byte) {
	t.Helper()
	var got [][]byte
	w, err := OpenWAL(dir, floor, o, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, got
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{Fsync: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 25; i++ {
		p := []byte(fmt.Sprintf("payload-%03d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		if _, _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got := collectWAL(t, dir, 0, Options{Fsync: FsyncOff})
	defer w2.Abort()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Appends continue after a replayed open.
	if _, _, err := w2.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
}

func TestWALSegmentRotationAndRemoveBelow(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{Fsync: FsyncOff, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 40)
	lastSeg := 0
	for i := 0; i < 10; i++ {
		seg, _, err := w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		lastSeg = seg
	}
	if lastSeg < 3 {
		t.Fatalf("expected size rotation, still on segment %d", lastSeg)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// All 10 records replay across the segments.
	w2, got := collectWAL(t, dir, 0, Options{Fsync: FsyncOff, SegmentBytes: 64})
	if len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}

	// An explicit rotate plus RemoveBelow leaves only the fresh segment.
	seg, err := w2.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.RemoveBelow(seg); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, got := collectWAL(t, dir, 0, Options{Fsync: FsyncOff})
	defer w3.Abort()
	if len(got) != 0 {
		t.Fatalf("replayed %d after RemoveBelow, want 0", len(got))
	}
	entries, _ := os.ReadDir(dir)
	var segs int
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segment files on disk, want 1", segs)
	}
}

func TestWALFloorDeletesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{Fsync: FsyncOff, SegmentBytes: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := w.Append([]byte("0123456789012345678901234567890")); err != nil {
			t.Fatal(err)
		}
	}
	last := w.CurrentSegment()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Open with floor = last: earlier segments are deleted unread.
	w2, got := collectWAL(t, dir, last, Options{Fsync: FsyncOff, SegmentBytes: 32})
	defer w2.Abort()
	for idx := 1; idx < last; idx++ {
		if _, err := os.Stat(filepath.Join(dir, segmentName(idx))); !os.IsNotExist(err) {
			t.Fatalf("segment %d below floor still exists", idx)
		}
	}
	if len(got) > 1 {
		t.Fatalf("replayed %d records from below the floor", len(got))
	}
}

// TestWALTornTailTruncatedAtEveryOffset is the exhaustive torn-write
// harness: the segment is cut at every possible byte offset and recovery
// must return exactly the records whose frames lie fully below the cut,
// then truncate the file so appends continue cleanly.
func TestWALTornTailTruncatedAtEveryOffset(t *testing.T) {
	master := t.TempDir()
	w, err := OpenWAL(master, 0, Options{Fsync: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	var ends []int64
	for i := 0; i < 6; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{byte('a' + i)}, 5+i*3))))
		payloads = append(payloads, p)
		_, end, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(master, segmentName(1))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off <= len(data); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, got := collectWAL(t, dir, 0, Options{Fsync: FsyncOff})
		want := 0
		for _, end := range ends {
			if end <= int64(off) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", off, len(got), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut at %d: record %d corrupted", off, i)
			}
		}
		// The log must accept appends after the truncation.
		if _, _, err := w2.Append([]byte("after-tear")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", off, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// dirFiles reads every file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestWALCorruptMiddleFrameRefused flips a byte inside an early frame while
// later segments hold frames: that is media corruption, not a torn tail, so
// the open must fail naming the segment and the offset, and leave every
// file as it was rather than drop the acknowledged records behind it.
func TestWALCorruptMiddleFrameRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{Fsync: FsyncOff, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var firstEnd int64
	for i := 0; i < 8; i++ {
		_, end, err := w.Append(bytes.Repeat([]byte{byte(i)}, 30))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstEnd = end
		}
	}
	if w.CurrentSegment() < 2 {
		t.Fatal("test needs multiple segments")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record of segment 1 (one byte inside its payload).
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+frameOverhead+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	_, err = OpenWAL(dir, 0, Options{Fsync: FsyncOff, SegmentBytes: 64}, nil)
	if err == nil {
		t.Fatal("opened a log with a corrupt frame in the middle")
	}
	for _, want := range []string{segmentName(1), fmt.Sprintf("offset %d", firstEnd)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Fatal("a refused open changed the log's files")
	}
}

// TestWALTornTailBeforeHeaderOnlySegment: a torn frame in the newest segment
// with frames, followed by a segment holding only its header (a rotation a
// crash cut short, or one a sealed log made while closing), is a torn tail:
// the open recovers the acknowledged prefix and appends continue.
func TestWALTornTailBeforeHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{Fsync: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < 3; i++ {
		_, end, err := w.Append(bytes.Repeat([]byte{byte(i)}, 30))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, segmentName(1)), ends[2]-5); err != nil {
		t.Fatal(err)
	}

	w2, got := collectWAL(t, dir, 0, Options{Fsync: FsyncOff})
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the tear", len(got))
	}
	if _, _, err := w2.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got = collectWAL(t, dir, 0, Options{Fsync: FsyncOff})
	if len(got) != 3 || string(got[2]) != "after-tear" {
		t.Fatalf("after reopen: %d records", len(got))
	}
}

func TestWALAppendAfterCloseErrors(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), 0, Options{Fsync: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestWALFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncPerBatch, FsyncEveryInterval, FsyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, 0, Options{Fsync: pol, FsyncInterval: 5 * time.Millisecond}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, _, err := w.Append([]byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if pol == FsyncEveryInterval {
				time.Sleep(20 * time.Millisecond) // let the background syncer run once
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, got := collectWAL(t, dir, 0, Options{Fsync: pol})
			w2.Abort()
			if len(got) != 10 {
				t.Fatalf("replayed %d, want 10", len(got))
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"": FsyncPerBatch, "batch": FsyncPerBatch, "always": FsyncPerBatch,
		"interval": FsyncEveryInterval,
		"off":      FsyncOff, "none": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Error("ParseFsyncPolicy(bogus) succeeded")
	}
}

// TestWALConcurrentAppendGroupCommit hammers FsyncPerBatch from many
// goroutines: the group-commit path must keep every record intact and in
// a replayable log (order across goroutines is unspecified).
func TestWALConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{Fsync: FsyncPerBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				if _, _, err := w.Append(payload); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	w2, err := OpenWAL(dir, 0, Options{}, func(p []byte) error {
		seen[string(p)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	if len(seen) != writers*each {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*each)
	}
}
