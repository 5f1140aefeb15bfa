package tsdb

// The tag index (index.go) against full scans of m.series: its posting
// lists, the metadata it answers and the Selects it drives, through
// writes, retention deletes and a checkpoint + WAL recovery, and under
// writers and sweeps racing phase 1.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// scanTagKeys lists the tag keys of m's series by walking every series.
func scanTagKeys(m *measurement) []string {
	set := map[string]bool{}
	for _, sr := range m.series {
		for k := range sr.tags {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scanMeta is what SHOW TAG KEYS (key == "") or SHOW TAG VALUES WITH KEY =
// key over meas ("" = every measurement) answers, by walking every series.
func scanMeta(db *DB, meas, key string) []string {
	set := map[string]bool{}
	for _, sh := range db.shards {
		sh.mu.RLock()
		for name, m := range sh.measurements {
			if meas != "" && name != meas {
				continue
			}
			for _, sr := range m.series {
				for k, v := range sr.tags {
					switch {
					case key == "":
						set[k] = true
					case k == key:
						set[v] = true
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	var out []string
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// checkIndexInvariants holds every measurement's index to a scan of its
// series: sorted lists each series once, in key order, and each posting
// list is exactly the series carrying its pair, in key order.
func checkIndexInvariants(t *testing.T, db *DB) {
	t.Helper()
	for _, sh := range db.shards {
		sh.mu.RLock()
		for name, m := range sh.measurements {
			ix := &m.idx
			keysOf := func(list []uint32) []string {
				out := make([]string, len(list))
				for i, o := range list {
					out[i] = ix.slots[o].key
				}
				return out
			}
			want := make([]string, 0, len(m.series))
			for k, sr := range m.series {
				if sr.key != k {
					t.Errorf("%s: series %q held under %q", name, sr.key, k)
				}
				want = append(want, k)
			}
			sort.Strings(want)
			if got := keysOf(ix.sorted); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: index lists %q, m.series holds %q", name, got, want)
			}
			postings := map[string]map[string][]string{}
			for _, k := range want {
				for tk, tv := range m.series[k].tags {
					if postings[tk] == nil {
						postings[tk] = map[string][]string{}
					}
					postings[tk][tv] = append(postings[tk][tv], k)
				}
			}
			got := map[string]map[string][]string{}
			for tk, vals := range ix.tags {
				got[tk] = map[string][]string{}
				for tv, list := range vals {
					got[tk][tv] = keysOf(list)
				}
			}
			if !reflect.DeepEqual(got, postings) {
				t.Errorf("%s: postings %q, scan %q", name, got, postings)
			}
		}
		sh.mu.RUnlock()
	}
}

// fuzzTagKeys and fuzzTagValues are the alphabets FuzzTagIndex draws tag
// sets and filters from: the bytes the series key escapes, and "*", which
// is a value like any other.
var (
	fuzzTagKeys   = []string{"a", "b,c", "d=e", `f\g`, "*"}
	fuzzTagValues = []string{"1", "2", "*", "x,y", "=", `\`, "a=b", `\,`}
)

// FuzzTagIndex drives a durable database through ops — batches of points
// with random tag sets over two measurements, retention deletes, a
// checkpoint, and a crash (Abort) + recovery from checkpoint and WAL — and
// after each holds the tag index to full scans: its posting lists
// (checkIndexInvariants), TagKeys/TagValues with and without a
// measurement, and Select against referenceSelect, which scans m.series,
// for filters of zero to two pairs and GROUP BY none, one key or *.
func FuzzTagIndex(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 5, 6, 0, 7, 3})
	f.Add(int64(2), []byte{4, 4, 13, 5, 1, 7, 4, 6, 7})
	f.Add(int64(3), []byte{7, 0, 1, 2, 3, 4, 5, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		rnd := rand.New(rand.NewPCG(uint64(seed), 42))
		d := Durability{Dir: t.TempDir(), Fsync: durable.FsyncOff}
		var store *Store
		var db *DB
		open := func() {
			var err error
			if store, err = OpenStore(StoreOptions{ShardsPerDB: 2, Durability: d}); err != nil {
				t.Fatal(err)
			}
			if db, err = store.OpenDatabase("lms"); err != nil {
				t.Fatal(err)
			}
			db.SetQueryCacheTTL(0)
		}
		open()
		defer func() { store.Abort() }()
		tagSet := func(n int) map[string]string {
			tags := map[string]string{}
			for range n {
				tags[fuzzTagKeys[rnd.IntN(len(fuzzTagKeys))]] = fuzzTagValues[rnd.IntN(len(fuzzTagValues))]
			}
			return tags
		}
		now := int64(1000)
		for _, op := range ops {
			switch op % 8 {
			case 5:
				db.DropBefore(time.Unix(0, now-int64(rnd.IntN(300))))
			case 6:
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			case 7:
				store.Abort()
				open()
			default:
				pts := make([]lineproto.Point, 1+int(op/8)%6)
				for i := range pts {
					pts[i] = lineproto.NewPoint(
						[]string{"m", "n"}[rnd.IntN(2)],
						tagSet(rnd.IntN(4)),
						map[string]lineproto.Value{"v": lineproto.Float(float64(rnd.IntN(100)))},
						time.Unix(0, now+int64(rnd.IntN(40))-20),
					)
					now += 10
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Fatal(err)
				}
			}

			checkIndexInvariants(t, db)
			for _, meas := range []string{"", "m", "n"} {
				if got, want := db.TagKeys(meas), scanMeta(db, meas, ""); !slices.Equal(got, want) {
					t.Fatalf("TagKeys(%q) = %q, scan %q", meas, got, want)
				}
				for _, k := range fuzzTagKeys {
					if got, want := db.TagValues(meas, k), scanMeta(db, meas, k); !slices.Equal(got, want) {
						t.Fatalf("TagValues(%q, %q) = %q, scan %q", meas, k, got, want)
					}
				}
			}
			for _, meas := range []string{"m", "n"} {
				for range 4 {
					q := Query{Measurement: meas, Filter: TagFilter(tagSet(rnd.IntN(3)))}
					switch rnd.IntN(3) {
					case 1:
						q.GroupByTags = []string{fuzzTagKeys[rnd.IntN(len(fuzzTagKeys))]}
					case 2:
						q.GroupByTags = []string{"*"}
					}
					if rnd.IntN(2) == 0 {
						q.Cols = []AggCol{{Field: "v", Agg: AggMean}}
					}
					want, werr := referenceSelect(db, q)
					got, gerr := db.SelectContext(bg, q)
					if werr != gerr || !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v:\n got %+v (%v)\nwant %+v (%v)", q, got, gerr, want, werr)
					}
				}
			}
		}
	})
}

// TestTagIndexRace: phase 1 reads posting lists under the shard read lock
// while writers mint a new job's series every round (add inserts into the
// lists) and a retention sweep deletes the expired ones (the index is
// rebuilt), with SHOW TAG and GROUP BY * readers on the same index. A
// jobid panel answers that job's series alone, one row each, whatever
// moment it lands in.
func TestTagIndexRace(t *testing.T) {
	t.Parallel()
	const writers, rounds, hosts = 2, 80, 6
	db := newDBOpts("lms", StoreOptions{ShardsPerDB: 1})
	db.SetQueryCacheTTL(0)
	job := func(w, r int) string { return fmt.Sprintf("%d.w%d", r, w) }
	var round [writers]atomic.Int64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				pts := make([]lineproto.Point, hosts)
				for h := range pts {
					pts[h] = lineproto.NewPoint(
						"cpu",
						map[string]string{"jobid": job(w, r), "hostname": fmt.Sprintf("h%d", h), "queue": "batch"},
						map[string]lineproto.Value{"v": lineproto.Float(float64(r))},
						time.Unix(int64(r), 0),
					)
				}
				if err := db.WriteBatchContext(bg, pts); err != nil {
					t.Error(err)
					return
				}
				round[w].Store(int64(r))
			}
		}()
	}
	readers.Add(1)
	go func() { // the retention sweep: keep the last few rounds
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.DropBefore(time.Unix(min(round[0].Load(), round[1].Load())-4, 0))
		}
	}()
	for rd := range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := (rd + i) % writers
				j := job(w, int(max(round[w].Load()-int64(i%6), 1)))
				res, err := db.SelectContext(bg, Query{Measurement: "cpu", Filter: TagFilter{"jobid": j, "queue": "batch"},
					Cols: []AggCol{{Field: "v", Agg: AggCount}}, GroupByTags: []string{"*"}})
				if err != nil && err != ErrNoMeasurement {
					t.Error(err)
					return
				}
				for _, s := range res {
					if s.Tags["jobid"] != j || s.Rows[0].Values[0].IntVal() != 1 {
						t.Errorf("jobid %s panel answered %v with %v", j, s.Tags, s.Rows[0].Values[0])
						return
					}
				}
				db.TagValues("cpu", "jobid")
				db.TagKeys("")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	db.DropBefore(time.Unix(rounds-4, 0))
	checkIndexInvariants(t, db)
	if got := len(db.TagValues("cpu", "jobid")); got != writers*5 {
		t.Fatalf("%d jobs left after the last sweep, want the last 5 rounds' %d", got, writers*5)
	}
}
