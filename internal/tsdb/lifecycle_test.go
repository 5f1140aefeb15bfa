package tsdb

// Tests of the stop-and-wait rule (DESIGN.md §9): whoever closes a WAL or
// removes a database directory has first stopped the background jobs that
// touch it and waited for the runs in flight.

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fsys"
	"repro/internal/tsdb/durable"
)

// parkFS is the real filesystem with two hooks on the checkpoint path: the
// first operation of the first checkpoint write after arm() parks until
// release is closed, and once fence(dir) was called every operation under
// dir is recorded as a violation.
type parkFS struct {
	fsys.OS
	parked, release chan struct{}

	mu     sync.Mutex
	armed  bool
	fenced string
	late   []string
}

func newParkFS() *parkFS {
	return &parkFS{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkFS) arm() { p.mu.Lock(); p.armed = true; p.mu.Unlock() }

func (p *parkFS) fence(dir string) { p.mu.Lock(); p.fenced = dir; p.mu.Unlock() }

func (p *parkFS) violations() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.late...)
}

func (p *parkFS) touch(op, path string, checkpointWrite bool) {
	p.mu.Lock()
	park := checkpointWrite && p.armed
	if park {
		p.armed = false
	}
	if p.fenced != "" && strings.HasPrefix(path, p.fenced) {
		p.late = append(p.late, op+" "+path)
	}
	p.mu.Unlock()
	if park {
		close(p.parked)
		<-p.release
	}
}

// A checkpoint write begins with its temp file's OpenFile. A MkdirAll after
// arm() can only be a checkpoint rebuilding its directory: it parks the same
// way, so a DropDatabase that does not wait is caught in the act.
func (p *parkFS) MkdirAll(dir string, perm os.FileMode) error {
	p.touch("mkdir", dir, true)
	return p.OS.MkdirAll(dir, perm)
}

func (p *parkFS) OpenFile(name string, flag int, perm os.FileMode) (fsys.File, error) {
	p.touch("open", name, strings.HasSuffix(name, ".snap.tmp"))
	return p.OS.OpenFile(name, flag, perm)
}

func (p *parkFS) Rename(oldpath, newpath string) error {
	p.touch("rename", newpath, false)
	return p.OS.Rename(oldpath, newpath)
}

func (p *parkFS) Remove(name string) error {
	p.touch("remove", name, false)
	return p.OS.Remove(name)
}

func (p *parkFS) SyncDir(dir string) error {
	p.touch("syncdir", dir, false)
	return p.OS.SyncDir(dir)
}

// openParked opens a durable store whose database "lms" has one background
// checkpoint parked inside its checkpoint write.
func openParked(t *testing.T) (*Store, *parkFS, string) {
	t.Helper()
	fs, root := newParkFS(), t.TempDir()
	store, err := OpenStore(StoreOptions{Durability: Durability{
		Dir: root, Fsync: durable.FsyncOff, CheckpointBytes: 1, FS: fs,
	}})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	fs.arm()
	if err := db.WriteBatchContext(bg, corpusBatches()[0]); err != nil { // past CheckpointBytes: kicks the job
		t.Fatal(err)
	}
	<-fs.parked
	return store, fs, root
}

// returnsOnlyAfter asserts that call blocks while the background run is
// parked and returns once it is released.
func returnsOnlyAfter(t *testing.T, what string, release chan struct{}, call func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { call(); close(done) }()
	select {
	case <-done:
		t.Errorf("%s returned while a background run was still in flight", what)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-done
}

// TestDropDatabaseDuringCheckpoint: DROP DATABASE racing a background
// checkpoint. Before the one lifecycle nobody waited for the checkpoint
// goroutine: it rebuilt the removed directory, wrote its snapshot there,
// and the next start listed the dropped database with its points.
func TestDropDatabaseDuringCheckpoint(t *testing.T) {
	store, fs, root := openParked(t)
	dir := filepath.Join(root, "lms")
	returnsOnlyAfter(t, "DropDatabase", fs.release, func() {
		store.DropDatabase("lms")
		fs.fence(dir)
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if late := fs.violations(); len(late) > 0 {
		t.Errorf("filesystem operations on the dropped database after DropDatabase returned: %q", late)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("dropped database directory is back (stat err = %v)", err)
	}
	again, err := OpenStore(StoreOptions{Durability: Durability{Dir: root}})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if dbs := again.Databases(); len(dbs) != 0 {
		t.Errorf("restart lists %q, want the dropped database to stay dropped", dbs)
	}
}

// TestCheckpointAfterDropFails: a checkpoint that finds its directory gone
// reports it; it never recreates the directory.
func TestCheckpointAfterDropFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	err := durable.WriteSnapshot(nil, dir, 2, &durable.Snapshot{})
	if !os.IsNotExist(err) {
		t.Fatalf("WriteSnapshot into a missing directory: err = %v, want ENOENT", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("WriteSnapshot rebuilt the directory (stat err = %v)", err)
	}
}

// backgroundGoroutines returns the stacks, keyed by goroutine id, of
// every goroutine other than the caller that is inside non-test code of
// this module (a test function parked in t.Parallel is not).
func backgroundGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		for l := 1; i > 0 && l+1 < len(lines); l++ { // i == 0 is the caller
			if strings.HasPrefix(lines[l], "repro/internal/") && !strings.Contains(lines[l+1], "_test.go:") {
				id, _, _ := strings.Cut(lines[0], " [")
				out[id] = g
				break
			}
		}
	}
	return out
}

// TestCloseWaitsForBackground: Close and Abort return only after a sweep
// parked inside its run does, and a store with every job live — retention,
// compaction, a checkpoint in flight, the WAL interval syncer — leaves no
// goroutine of this module behind.
func TestCloseWaitsForBackground(t *testing.T) {
	for name, stop := range map[string]func(*DB){
		"Close": func(db *DB) { _ = db.Close() },
		"Abort": (*DB).Abort,
	} {
		db := newDB("sweep")
		parked, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		db.retJob.Every(time.Millisecond, func(context.Context) error {
			once.Do(func() { close(parked) })
			<-release
			return nil
		})
		<-parked
		returnsOnlyAfter(t, name, release, func() { stop(db) })
	}

	before := backgroundGoroutines()
	fs, root := newParkFS(), t.TempDir()
	store, err := OpenStore(StoreOptions{CompressAfter: 20 * time.Millisecond, Durability: Durability{
		Dir: root, Fsync: durable.FsyncEveryInterval, FsyncInterval: time.Millisecond, CheckpointBytes: 1, FS: fs,
	}})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.OpenDatabase("lms")
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetention(time.Hour)
	fs.arm()
	if err := db.WriteBatchContext(bg, corpusBatches()[0]); err != nil {
		t.Fatal(err)
	}
	<-fs.parked
	if len(backgroundGoroutines()) < len(before)+4 {
		t.Fatalf("want the four jobs of the database running before Close")
	}
	returnsOnlyAfter(t, "Store.Close", fs.release, func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	})
	for id, stack := range backgroundGoroutines() {
		if _, old := before[id]; !old {
			t.Errorf("goroutine survives Store.Close:\n%s", stack)
		}
	}
	// The runs were counted where they ran, under a job label alone.
	var scrape strings.Builder
	store.Metrics().Registry().Render(&scrape)
	for _, want := range []string{`lms_job_runs_total{job="checkpoint"} 1`, `lms_job_failures_total{job="checkpoint"} 0`} {
		if !strings.Contains(scrape.String(), want+"\n") {
			t.Errorf("scrape lacks %q", want)
		}
	}
	if strings.Contains(scrape.String(), `lms_job_runs_total{job="wal_sync"} 0`+"\n") {
		t.Error("the WAL interval syncer ran uncounted")
	}
}
