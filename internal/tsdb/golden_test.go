package tsdb

// The on-disk format pin (DESIGN.md §9): testdata/golden holds a data
// directory — one LMSCKP3 checkpoint whose chunks hold dense, sparse,
// string and mixed columns, plus a WAL tail — and what the commit that
// wrote it (cd4965c) read back out of it. A build that cannot recover
// every point from those bytes, or that checkpoints the recovered state to
// different bytes, has changed the format.
//
// cd4965c wrote data/ by the procedure below, in the LMSCKP2 format of the
// day. When the raw-run codec left the checkpoint, that file was carried to
// LMSCKP3 run for run: each raw run compressed in place by the chunk
// codecs, no run merged, the WAL tail untouched. So expected.txt, never
// re-taken, still pins cd4965c's answers. recheckpoint/ is re-taken when
// the format or the seal rule (DESIGN.md §13) changes what a recovered
// store checkpoints. Decoding each series' head at recovery did not: the
// head chunk re-encodes to the bytes it was read from.
//
// The committed files are only ever read. To rebuild them, check out the
// commit that should own the format, copy this file next to its
// persist_test.go and run
//
//	LMS_GOLDEN_WRITE=$PWD/testdata/golden go test -run TestGoldenDataDir ./internal/tsdb/
//
// Under today's seal rule a rebuild cuts the series into shorter runs than
// cd4965c did, so the WAL tail's shifted rewrite batch matches its run
// exactly and upserts where cd4965c kept both rows: the rebuilt
// expected.txt lacks those duplicates.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// dumpDatabase renders every stored point of db, one series block per tag
// set and one line per row with each value's kind spelled out, in the
// engine's deterministic order.
func dumpDatabase(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	for _, m := range db.Measurements() {
		res, err := db.SelectContext(bg, Query{Measurement: m, GroupByTags: db.TagKeys(m)})
		if err != nil {
			t.Fatalf("select %s: %v", m, err)
		}
		for _, sr := range res {
			fmt.Fprintf(&sb, "# %s %s\n", sr.Name, seriesKey(sr.Tags))
			for _, row := range sr.Rows {
				fmt.Fprintf(&sb, "%d", row.Time.UnixNano())
				for ci, v := range row.Values {
					if v != nil {
						fmt.Fprintf(&sb, " %s=%s:%q", sr.Columns[ci], v.Kind(), v.StringVal())
					}
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// shiftBatches returns the corpus with every timestamp moved by d and,
// when gen is non-empty, every point retagged gen=<gen> — other series
// than the ones the plain corpus writes.
func shiftBatches(d time.Duration, gen string) [][]lineproto.Point {
	batches := corpusBatches()
	for _, b := range batches {
		for i := range b {
			b[i].Time = b[i].Time.Add(d)
			if gen != "" {
				b[i].Tags = lineproto.MergeTags(nil, b[i].Tags, []lineproto.Tag{{Key: "gen", Value: gen}})
			}
		}
	}
	return batches
}

// bigRun is one 500-row in-order series, one run: the head of its series,
// a chunk in the checkpoint that recovery decodes for the WAL tail's exact
// rewrite of it.
func bigRun(bump float64) []lineproto.Point {
	base := time.Unix(0, 1600000000_000000000).UTC()
	pts := make([]lineproto.Point, 500)
	for i := range pts {
		pts[i] = lineproto.NewPoint(
			"cpu",
			map[string]string{"hostname": "big"},
			map[string]lineproto.Value{
				"user": lineproto.Float(float64(i%17) + bump),
				"ctx":  lineproto.Int(int64(i) * 11),
				"up":   lineproto.Bool(i%5 != 0),
				"mode": lineproto.String([]string{"idle", "busy", "io"}[i%3]),
			},
			base.Add(time.Duration(i)*10*time.Second),
		)
		if i%7 == 0 {
			pts[i].Fields = slices.DeleteFunc(pts[i].Fields, func(f lineproto.Field) bool { return f.Key == "mode" }) // a sparse string column
		}
	}
	return pts
}

// writeGoldenDir builds the pinned data directory under root/data and
// records what the writing commit reads back from it.
func writeGoldenDir(t *testing.T, root string) {
	dataDir := filepath.Join(root, "data")
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	write := func(db *DB, batches ...[]lineproto.Point) {
		for _, b := range batches {
			if err := db.WriteBatchContext(bg, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := openDurableStore(t, Durability{Dir: dataDir, Fsync: durable.FsyncOff})
	db, err := st.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	// Every write shape: raw, sparse, string and mixed columns in resident
	// chunks behind heads, which the checkpoint writes as they are.
	write(db, bigRun(0))
	write(db, corpusBatches()...)
	// The same shapes again as raw runs, in series of their own so that no
	// merge decompresses the chunks above.
	write(db, shiftBatches(1000*time.Second, "2")...)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The WAL tail, replayed through the write path on every open: cpu
	// blocks landing next to (and merging with) compressed chunks, sparse
	// and mixed blocks extending the heads recovery decoded, and the
	// exact-timestamp rewrite of the big run (the head of its series: an
	// upsert of the decoded chunk).
	write(db, shiftBatches(2000*time.Second, "")[:6]...)
	write(db, shiftBatches(2000*time.Second, "2")[6:]...)
	write(db, bigRun(0.5))
	st.Abort()
	if err := os.Remove(filepath.Join(dataDir, "LOCK")); err != nil {
		t.Fatal(err)
	}

	snap, _, err := durable.LoadLatestSnapshot(nil, filepath.Join(dataDir, "lms"))
	if err != nil || snap == nil {
		t.Fatalf("generated checkpoint unreadable: %v", err)
	}
	var runs, sparse, mixed, strs int
	for _, m := range snap.Measurements {
		for _, sr := range m.Series {
			for _, r := range sr.Runs {
				runs++
				for _, c := range r.Cols {
					if c.Present != nil {
						sparse++
					}
					if c.Mixed {
						mixed++
					}
					if c.Kind == lineproto.KindString && !c.Mixed {
						strs++
					}
				}
			}
		}
	}
	t.Logf("checkpoint holds %d chunks; %d sparse, %d mixed, %d string columns", runs, sparse, mixed, strs)
	if runs < 6 || sparse == 0 || mixed < 2 || strs == 0 {
		t.Fatal("generated checkpoint does not cover every run shape")
	}

	// What this commit makes of its own bytes.
	work := t.TempDir()
	copyTree(t, dataDir, work)
	st2 := openDurableStore(t, Durability{Dir: work, Fsync: durable.FsyncOff})
	db2 := st2.DB("lms")
	if err := os.WriteFile(filepath.Join(root, "expected.txt"), []byte(dumpDatabase(t, db2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	name, data := onlyCheckpoint(t, filepath.Join(work, "lms"))
	st2.Abort()
	if err := os.MkdirAll(filepath.Join(root, "recheckpoint"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "recheckpoint", name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// onlyCheckpoint returns the name and bytes of the single checkpoint file
// a database directory holds after a successful Checkpoint.
func onlyCheckpoint(t *testing.T, dbDir string) (string, []byte) {
	t.Helper()
	snaps, _ := filepath.Glob(filepath.Join(dbDir, "checkpoint-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("%d checkpoint files in %s, want 1", len(snaps), dbDir)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(snaps[0]), data
}

func TestGoldenDataDir(t *testing.T) {
	if root := os.Getenv("LMS_GOLDEN_WRITE"); root != "" {
		writeGoldenDir(t, root)
		return
	}
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantName, wantSnap := onlyCheckpoint(t, filepath.Join(golden, "recheckpoint"))

	work := t.TempDir()
	copyTree(t, filepath.Join(golden, "data"), work)
	st := openDurableStore(t, Durability{Dir: work, Fsync: durable.FsyncOff})
	defer st.Abort()
	db := st.DB("lms")
	if db == nil {
		t.Fatal("the golden directory's database did not recover")
	}
	if got := dumpDatabase(t, db); got != string(want) {
		t.Errorf("recovered points differ from testdata/golden/expected.txt:\n%s", firstDiff(got, string(want)))
	}
	// The open merged what the checkpoint holds unmerged (cd4965c merged
	// nothing) and what the replay cut: the layout is the settled one.
	if n := db.Compress(); n != 0 {
		t.Errorf("the opened store still held %d chunks to merge", n)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gotName, gotSnap := onlyCheckpoint(t, filepath.Join(work, "lms"))
	if gotName != wantName {
		t.Errorf("checkpoint file is %s, want %s", gotName, wantName)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("re-checkpointed state is %d bytes and differs from the writing commit's %d bytes (first difference at offset %d)",
			len(gotSnap), len(wantSnap), firstDiffOffset(gotSnap, wantSnap))
	}
}

func firstDiffOffset(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// firstDiff names the first line two dumps disagree on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}
