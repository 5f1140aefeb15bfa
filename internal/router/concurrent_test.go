package router

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// The tests in this file exercise the batched ingest pipeline under
// goroutine fan-out and are meant to run under the race detector.

// concBatch builds one batch of n points starting at timestamp base
// seconds. Rounds must use distinct bases: re-ingesting identical
// timestamps is an upsert in the store (tsdb same-timestamp rewrite,
// InfluxDB duplicate-point semantics), so fixed timestamps would make the
// PointCount assertions below count deduplication instead of lost points.
func concBatch(meas, host string, base, n int) []lineproto.Point {
	pts := make([]lineproto.Point, n)
	for i := range pts {
		pts[i] = lineproto.NewPoint(
			meas,
			map[string]string{"hostname": host},
			map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
			time.Unix(int64(base+i), 0),
		)
	}
	return pts
}

// TestRouterConcurrentIngest fans many agents into one router with per-user
// duplication enabled and asserts that no point is lost or double-counted.
func TestRouterConcurrentIngest(t *testing.T) {
	t.Parallel()
	const (
		agents  = 8
		rounds  = 30
		perB    = 10
		jobHost = "job-host"
	)
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	rt, err := New(Config{
		Primary: LocalSink{DB: db},
		UserSink: func(user string) Sink {
			return LocalSink{DB: store.CreateDatabase("user_" + user)}
		},
		Now: func() time.Time { return time.Unix(1000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.JobStart(JobSignal{
		JobID: "1", User: "alice", Nodes: []string{jobHost},
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			host := fmt.Sprintf("host%02d", a)
			if a == 0 {
				host = jobHost // one agent runs inside the job
			}
			meas := fmt.Sprintf("cpu%02d", a)
			for i := 0; i < rounds; i++ {
				if err := rt.IngestContext(context.Background(), concBatch(meas, host, i*perB, perB)); err != nil {
					t.Errorf("agent %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()

	wantPts := int64(agents * rounds * perB)
	received, forwarded, dropped := rt.Stats()
	// JobStart wrote one annotation event through the primary sink.
	if received != wantPts {
		t.Fatalf("received = %d, want %d", received, wantPts)
	}
	if forwarded != wantPts+1 {
		t.Fatalf("forwarded = %d, want %d", forwarded, wantPts+1)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if got, want := db.PointCount(), int(wantPts)+1; got != want {
		t.Fatalf("primary PointCount = %d, want %d", got, want)
	}
	// The job agent's points were duplicated into alice's database.
	udb := store.DB("user_alice")
	if udb == nil {
		t.Fatal("user_alice database missing")
	}
	if got, want := udb.PointCount(), rounds*perB; got != want {
		t.Fatalf("user PointCount = %d, want %d", got, want)
	}
}

// TestRouterConcurrentIngestBatch drives the payload-based entry point (the
// path shared by HTTP /write and the in-process agents) concurrently.
func TestRouterConcurrentIngestBatch(t *testing.T) {
	t.Parallel()
	const (
		agents = 6
		rounds = 25
		perB   = 8
	)
	db := tsdb.NewStore().CreateDatabase("lms")
	rt, err := New(Config{Primary: LocalSink{DB: db}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				payload, err := lineproto.Encode(concBatch(fmt.Sprintf("net%02d", a), "h1", i*perB, perB))
				if err != nil {
					t.Errorf("encode: %v", err)
					return
				}
				if err := rt.IngestBatch(payload); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if got, want := db.PointCount(), agents*rounds*perB; got != want {
		t.Fatalf("PointCount = %d, want %d", got, want)
	}
}

// TestRouterConcurrentJobChurn mixes metric ingest with job start/end churn
// and registry/stat reads: the tag store and job registry must stay
// race-free while enrichment is in flight.
func TestRouterConcurrentJobChurn(t *testing.T) {
	t.Parallel()
	const rounds = 40
	db := tsdb.NewStore().CreateDatabase("lms")
	rt, err := New(Config{
		Primary: LocalSink{DB: db},
		Now:     func() time.Time { return time.Unix(2000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Metric traffic from two hosts.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			host := fmt.Sprintf("churn%02d", a)
			for i := 0; i < rounds; i++ {
				if err := rt.IngestContext(context.Background(), concBatch("load", host, i*5, 5)); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(a)
	}
	// Job churn on the same hosts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := fmt.Sprintf("job%d", i)
			err := rt.JobStart(JobSignal{
				JobID: id, User: "bob", Nodes: []string{"churn00", "churn01"},
			})
			if err != nil {
				t.Errorf("start: %v", err)
				return
			}
			if err := rt.JobEnd(id); err != nil {
				t.Errorf("end: %v", err)
				return
			}
		}
	}()
	// Observers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rt.Stats()
			rt.Jobs().Running()
			rt.Jobs().Lookup("churn00")
		}
	}()
	wg.Wait()

	received, forwarded, dropped := rt.Stats()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	// Every received metric point plus 2 events per job must have been
	// forwarded.
	want := received + 2*rounds
	if forwarded != want {
		t.Fatalf("forwarded = %d, want %d", forwarded, want)
	}
}

// TestJobChurnRacesIngestBatch: job starts and ends on shared nodes race
// IngestBatch from those nodes. Each point takes the whole tag set of one
// job that ran on its node, or none; nothing is lost; and no node keeps a
// job once the churn is over.
func TestJobChurnRacesIngestBatch(t *testing.T) {
	t.Parallel()
	const (
		writers = 4
		rounds  = 100
	)
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	rt, err := New(Config{Primary: LocalSink{DB: db}, Now: func() time.Time { return time.Unix(1000, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ts := (w*rounds + i) * 1e9
				body := fmt.Sprintf("cpu,hostname=n0 v=1 %d\ncpu,hostname=n1 v=1 %d\n", ts, ts)
				if err := rt.IngestBatch([]byte(body)); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
			for _, sig := range []JobSignal{
				{JobID: a, User: "alice", Nodes: []string{"n0", "n1"}},
				{JobID: b, User: "bob", Nodes: []string{"n1"}},
			} {
				if err := rt.JobStart(sig); err != nil {
					t.Errorf("start: %v", err)
					return
				}
			}
			for _, id := range []string{a, b} {
				if err := rt.JobEnd(id); err != nil {
					t.Errorf("end: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	received, forwarded, dropped := rt.Stats()
	if dropped != 0 || received != 2*writers*rounds || forwarded != received+4*rounds {
		t.Fatalf("received %d forwarded %d dropped %d", received, forwarded, dropped)
	}
	if rt.Jobs().Lookup("n1") != nil {
		t.Fatal("a node keeps a job after the churn")
	}
	res, err := db.SelectContext(context.Background(), tsdb.Query{Measurement: "cpu", GroupByTags: []string{"hostname", "jobid", "username"}})
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, s := range res {
		points += len(s.Rows)
		job, user, host := s.Tags["jobid"], s.Tags["username"], s.Tags["hostname"]
		switch {
		case job == "" && user == "":
		case strings.HasPrefix(job, "a") && user == "alice":
		case strings.HasPrefix(job, "b") && user == "bob" && host == "n1":
		default:
			t.Errorf("point of %s tagged jobid=%q username=%q", host, job, user)
		}
	}
	if points != 2*writers*rounds {
		t.Fatalf("%d points stored, want %d", points, 2*writers*rounds)
	}
}
