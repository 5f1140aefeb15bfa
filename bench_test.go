package lms

// Benchmark harness: one bench per experiment id of DESIGN.md §4.
//
//	E1..E5  reproduce the paper's figures (architecture flow, job
//	        evaluation, miniMD app-level monitoring, pathological
//	        detection, pattern tree),
//	O1..O6  quantify the overhead claims of the text (router, line
//	        protocol, database, libusermetric, publisher, HPM collection).
//
// Run with: go test -bench=. -benchmem
// EXPERIMENTS.md records the measured outcomes against the paper's claims.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hpm"
	"repro/internal/jobsched"
	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/router"
	"repro/internal/stream"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
	"repro/internal/usermetric"
	"repro/internal/workload"
)

func benchTopo() hpm.Topology {
	return hpm.Topology{Sockets: 2, CoresPerSocket: 10, ThreadsPerCore: 1, BaseClockMHz: 2200}
}

// --- E1: Fig. 1, the full architecture flow -------------------------------

// BenchmarkE1_EndToEndPipeline measures one full simulation step of a
// 4-node cluster running a triad job: scheduler, workload profiles, HPM and
// /proc counters, collection agents, router enrichment, database insert.
func BenchmarkE1_EndToEndPipeline(b *testing.B) {
	stack, sim, err := core.NewSimulatedStack(
		core.StackConfig{PerUserDBs: true},
		core.SimConfig{Nodes: 4, Topology: benchTopo(), CollectInterval: 60},
	)
	if err != nil {
		b.Fatal(err)
	}
	defer stack.Close()
	err = sim.SubmitJob(jobsched.JobRequest{
		ID: "bench", User: "u", Nodes: 4, Walltime: 1e12,
	}, workload.NewTriad(20, 1e12))
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Step(); err != nil { // arm HPM sessions
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stack.DB.PointCount())/float64(b.N), "points/step")
}

// --- E2: Fig. 2, online job evaluation ------------------------------------

func seedEvaluationDB(b *testing.B, nodes, minutes int) (*tsdb.Store, analysis.JobMeta) {
	b.Helper()
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	start := time.Unix(0, 0).UTC()
	meta := analysis.JobMeta{ID: "e2", User: "u", Start: start, End: start.Add(time.Duration(minutes) * time.Minute)}
	for n := 0; n < nodes; n++ {
		host := fmt.Sprintf("node%02d", n+1)
		meta.Nodes = append(meta.Nodes, host)
		for i := 0; i < minutes; i++ {
			ts := start.Add(time.Duration(i) * time.Minute)
			err := db.WriteBatchContext(context.Background(), []lineproto.Point{
				{
					Measurement: "likwid_mem_dp",
					Tags:        map[string]string{"hostname": host},
					Fields: map[string]lineproto.Value{
						"dp_mflop_s":                lineproto.Float(9000 + float64(i%100)),
						"memory_bandwidth_mbytes_s": lineproto.Float(90000),
						"ipc":                       lineproto.Float(0.7),
					},
					Time: ts,
				},
				{
					Measurement: "cpu",
					Tags:        map[string]string{"hostname": host},
					Fields:      map[string]lineproto.Value{"percent": lineproto.Float(95)},
					Time:        ts,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return store, meta
}

// newBenchDB builds database "lms" in a fresh in-memory store whose
// databases have the given shard count (0 = one per CPU).
func newBenchDB(shards int) *tsdb.DB {
	store := tsdb.NewStore()
	store.ShardsPerDB = shards
	return store.CreateDatabase("lms")
}

// BenchmarkE2_JobEvaluation measures the cost of computing the Fig. 2
// header (per-node means, node statistics, rule scan, pattern tree) for a
// 4-node, 2-hour job at 1-minute sampling — the work done every time a
// dashboard is loaded.
func BenchmarkE2_JobEvaluation(b *testing.B) {
	store, meta := seedEvaluationDB(b, 4, 120)
	ev := &analysis.Evaluator{Querier: tsdb.LocalQuerier{Store: store}, Database: "lms", PeakMemBWMBs: 120000, PeakDPMFlops: 500000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ev.Evaluate(meta)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- E3: Fig. 3, miniMD application-level monitoring ----------------------

// BenchmarkE3_MiniMDMonitoring measures the libusermetric emission path for
// one 100-iteration sample block of miniMD: model state, buffered client,
// line-protocol encoding, router ingest, database insert.
func BenchmarkE3_MiniMDMonitoring(b *testing.B) {
	db := tsdb.NewStore().CreateDatabase("lms")
	rt, err := router.New(router.Config{Primary: router.LocalSink{DB: db}})
	if err != nil {
		b.Fatal(err)
	}
	client, err := usermetric.New(usermetric.Config{
		Sink: func(payload []byte) error {
			pts, err := lineproto.Parse(payload)
			if err != nil {
				return err
			}
			return rt.IngestContext(context.Background(), pts)
		},
		DefaultTags:   map[string]string{"hostname": "node01", "app": "minimd"},
		FlushInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	mm := workload.NewMiniMD(20, 2097152, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := (i + 1) * 100
		temp, press, energy := mm.StateAt(iter)
		err := client.MetricFields("minimd", map[string]lineproto.Value{
			"runtime_100iter": lineproto.Float(mm.Runtime100At(iter)),
			"pressure":        lineproto.Float(press),
			"temperature":     lineproto.Float(temp),
			"energy":          lineproto.Float(energy),
		}, map[string]string{"iteration": fmt.Sprint(iter)})
		if err != nil {
			b.Fatal(err)
		}
		if err := client.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Fig. 4, pathological detection -----------------------------------

func breakSeries(minutes, breakStart, breakEnd int) []analysis.TimedValue {
	out := make([]analysis.TimedValue, minutes)
	for i := range out {
		v := 8000.0
		if i >= breakStart && i < breakEnd {
			v = 1.0
		}
		out[i] = analysis.TimedValue{T: time.Unix(int64(i*60), 0), V: v}
	}
	return out
}

// BenchmarkE4_PathologicalDetection measures the batch rule scan over a
// 2-hour, 1-minute-sampled timeline containing one Fig. 4 break.
func BenchmarkE4_PathologicalDetection(b *testing.B) {
	rule := analysis.DefaultRules()[0]
	series := breakSeries(120, 40, 58)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := analysis.Detect(rule, series); len(got) != 1 {
			b.Fatalf("violations %d", len(got))
		}
	}
}

// BenchmarkE4_PathologicalDetection_Streaming is the ablation of DESIGN.md
// §5: the online single-sample feed instead of the batch re-scan.
func BenchmarkE4_PathologicalDetection_Streaming(b *testing.B) {
	rule := analysis.DefaultRules()[0]
	series := breakSeries(120, 40, 58)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := &analysis.DetectStreaming{Rule: rule}
		fired := 0
		for _, s := range series {
			if _, ok := det.Feed(s); ok {
				fired++
			}
		}
		if fired == 0 {
			b.Fatal("no alarm")
		}
	}
}

// --- E5: Sect. V, performance pattern decision tree -----------------------

// BenchmarkE5_PatternTree measures one classification.
func BenchmarkE5_PatternTree(b *testing.B) {
	in := analysis.PatternInput{
		CPUUtil: 0.93, IPC: 0.7, DPMFlops: 9800, MemBWMBs: 95000,
		PeakMemBWMBs: 120000, PeakDPMFlops: 500000, Imbalance: 0.1,
		BranchMissRatio: 0.02,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := analysis.Classify(in)
		if c.Pattern == "" {
			b.Fatal("no pattern")
		}
	}
}

// --- O1: router overhead ----------------------------------------------------

func routerBatch(nPoints int, host string) []lineproto.Point {
	return measurementBatch(nPoints, "cpu", host)
}

func measurementBatch(nPoints int, meas, host string) []lineproto.Point {
	pts := make([]lineproto.Point, nPoints)
	for i := range pts {
		pts[i] = lineproto.Point{
			Measurement: meas,
			Tags:        map[string]string{"hostname": host},
			Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
			Time:        time.Unix(int64(i), 0),
		}
	}
	return pts
}

// BenchmarkO1_RouterThroughput measures the tagging+forwarding pipeline per
// 100-point batch, with the DESIGN.md §5 ablations: number of job tags in
// the tag store, per-user duplication, and publisher attachment.
func BenchmarkO1_RouterThroughput(b *testing.B) {
	cases := []struct {
		name    string
		tags    int
		dup     bool
		publish bool
	}{
		{"tags=0", 0, false, false},
		{"tags=4", 4, false, false},
		{"tags=16", 16, false, false},
		{"tags=4/dup", 4, true, false},
		{"tags=4/publish", 4, false, true},
		{"tags=4/dup+publish", 4, true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db := tsdb.NewStore().CreateDatabase("lms")
			cfg := router.Config{Primary: router.LocalSink{DB: db}}
			if c.dup {
				udb := tsdb.NewStore().CreateDatabase("user")
				cfg.UserSink = func(string) router.Sink { return router.LocalSink{DB: udb} }
			}
			if c.publish {
				pub, err := pubsub.NewPublisher("127.0.0.1:0", 0)
				if err != nil {
					b.Fatal(err)
				}
				defer pub.Close()
				cfg.Publisher = pub
			}
			rt, err := router.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if c.tags > 0 {
				tags := map[string]string{}
				for i := 0; i < c.tags; i++ {
					tags[fmt.Sprintf("tag%02d", i)] = fmt.Sprintf("value%02d", i)
				}
				sig := router.JobSignal{JobID: "1", User: "u", Nodes: []string{"h1"}, Tags: tags}
				if err := rt.JobStart(sig); err != nil {
					b.Fatal(err)
				}
			}
			batch := routerBatch(100, "h1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.IngestContext(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// --- O2: line protocol ------------------------------------------------------

// BenchmarkO2_LineProtocolEncode measures single-point encoding.
func BenchmarkO2_LineProtocolEncode(b *testing.B) {
	p := lineproto.Point{
		Measurement: "likwid_mem_dp",
		Tags:        map[string]string{"hostname": "node01", "jobid": "1234.master", "username": "alice"},
		Fields: map[string]lineproto.Value{
			"dp_mflop_s":                lineproto.Float(9823.5),
			"memory_bandwidth_mbytes_s": lineproto.Float(95234.1),
			"ipc":                       lineproto.Float(0.71),
		},
		Time: time.Unix(1500000000, 0),
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = lineproto.AppendPoint(buf[:0], p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkO2_LineProtocolParse measures single-line parsing.
func BenchmarkO2_LineProtocolParse(b *testing.B) {
	line := "likwid_mem_dp,hostname=node01,jobid=1234.master,username=alice dp_mflop_s=9823.5,ipc=0.71,memory_bandwidth_mbytes_s=95234.1 1500000000000000000"
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if _, err := lineproto.ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkO2_BatchedVsSingle quantifies the batched-transmission design
// choice (Sect. III-A): parse cost of one 100-line payload vs 100 single
// lines.
func BenchmarkO2_BatchedVsSingle(b *testing.B) {
	pts := routerBatch(100, "h1")
	payload, err := lineproto.Encode(pts)
	if err != nil {
		b.Fatal(err)
	}
	single, err := lineproto.EncodePoint(pts[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batched100", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			got, err := lineproto.Parse(payload)
			if err != nil || len(got) != 100 {
				b.Fatal(err)
			}
		}
	})
	b.Run("single100", func(b *testing.B) {
		b.SetBytes(int64(100 * len(single)))
		for i := 0; i < b.N; i++ {
			for j := 0; j < 100; j++ {
				if _, err := lineproto.Parse(single); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- O3: database ------------------------------------------------------------

// BenchmarkO3_TSDBWrite measures ingest of 100-point batches. The batch
// re-writes the same timestamps every iteration — the pattern that paid
// amortized run compaction under the PR 2 log-structured layout and now
// takes the columnar same-timestamp rewrite fast path (DESIGN.md §8):
// fields merge copy-on-write with last-write-wins, InfluxDB
// duplicate-point semantics, no run churn. In-order ingest — rising
// timestamps, the realistic agent pattern — is BenchmarkO3_TSDBWriteInOrder.
func BenchmarkO3_TSDBWrite(b *testing.B) {
	db := tsdb.NewStore().CreateDatabase("lms")
	batch := routerBatch(100, "h1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.WriteBatchContext(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkO3_TSDBWriteInOrder measures the realistic agent ingest
// pattern: 100-point batches with strictly rising timestamps, which take
// the append-to-newest-run hot path. Run with -benchmem: this is the
// workload whose allocs/op the columnar builders and the series-key cache
// are meant to shrink (EXPERIMENTS.md, experiment O3).
func BenchmarkO3_TSDBWriteInOrder(b *testing.B) {
	db := tsdb.NewStore().CreateDatabase("lms")
	batch := routerBatch(100, "h1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := time.Unix(int64(i)*100, 0)
		for k := range batch {
			batch[k].Time = base.Add(time.Duration(k) * time.Second)
		}
		if err := db.WriteBatchContext(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkO3_TSDBMemoryFootprint reports the resident bytes/point of a
// 1M-point load (4 series, float+int fields, in-order 1000-point
// batches): the storage-layout metric the columnar run representation
// optimizes. ns/op is the full load time; bytes/point is measured from
// the live heap after a GC, so transient write-path garbage is excluded.
func BenchmarkO3_TSDBMemoryFootprint(b *testing.B) {
	const (
		points = 1_000_000
		perB   = 1000
		series = 4
	)
	var bytesPerPoint float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()

		db := newBenchDB(4)
		pts := make([]lineproto.Point, perB)
		for wrote := 0; wrote < points; wrote += perB {
			for k := range pts {
				n := wrote + k
				pts[k] = lineproto.Point{
					Measurement: "cpu",
					Tags:        map[string]string{"hostname": fmt.Sprintf("h%d", n%series)},
					Fields: map[string]lineproto.Value{
						"value": lineproto.Float(float64(n)),
						"ops":   lineproto.Int(int64(n % 4096)),
					},
					Time: time.Unix(int64(n/series), int64(n%series)),
				}
			}
			if err := db.WriteBatchContext(context.Background(), pts); err != nil {
				b.Fatal(err)
			}
		}

		b.StopTimer()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		bytesPerPoint = float64(after.HeapAlloc-before.HeapAlloc) / points
		if got := db.PointCount(); got != points {
			b.Fatalf("PointCount = %d, want %d", got, points)
		}
		runtime.KeepAlive(db)
		b.StartTimer()
	}
	b.ReportMetric(bytesPerPoint, "bytes/point")
	b.ReportMetric(points, "points")
}

// BenchmarkO3_TSDBWriteParallel measures concurrent ingest of 100-point
// batches from GOMAXPROCS writers. Each writer streams a distinct
// measurement (the realistic hot path: different agents and metric types
// arrive concurrently), so the measurement-hashed shards spread the writers
// over independent locks and throughput scales with cores instead of
// serializing behind one database mutex.
func BenchmarkO3_TSDBWriteParallel(b *testing.B) {
	db := tsdb.NewStore().CreateDatabase("lms") // default shard count = GOMAXPROCS
	var writer atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := writer.Add(1)
		batch := measurementBatch(100, fmt.Sprintf("cpu%02d", id), "h1")
		for pb.Next() {
			if err := db.WriteBatchContext(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkO3_TSDBWriteParallelSingleShard is the ablation: the same
// parallel workload forced onto one shard, i.e. the pre-sharding lock
// layout.
func BenchmarkO3_TSDBWriteParallelSingleShard(b *testing.B) {
	db := newBenchDB(1)
	var writer atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := writer.Add(1)
		batch := measurementBatch(100, fmt.Sprintf("cpu%02d", id), "h1")
		for pb.Next() {
			if err := db.WriteBatchContext(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkO3_TSDBQueryWindowed measures the dashboard's typical windowed
// aggregation over a 2-hour series. The result cache is disabled so the
// aggregation engine itself is measured (BenchmarkQ3_SelectCachedRefresh
// covers the cached path).
func BenchmarkO3_TSDBQueryWindowed(b *testing.B) {
	store, meta := seedEvaluationDB(b, 4, 120)
	db := store.DB("lms")
	db.SetQueryCacheTTL(0)
	q := tsdb.Query{
		Measurement: "likwid_mem_dp",
		Cols:        []tsdb.AggCol{{Field: "dp_mflop_s", Agg: tsdb.AggMean}},
		Start:       meta.Start,
		End:         meta.End,
		GroupByTags: []string{"hostname"},
		Every:       5 * time.Minute,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SelectContext(context.Background(), q)
		if err != nil || len(res) != 4 {
			b.Fatal(err)
		}
	}
}

// BenchmarkO3_TSDBQueryInfluxQL adds the query-language layer on top
// (cache disabled, as in BenchmarkO3_TSDBQueryWindowed).
func BenchmarkO3_TSDBQueryInfluxQL(b *testing.B) {
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	db.SetQueryCacheTTL(0)
	batch := routerBatch(100, "h1")
	for i := 0; i < 100; i++ {
		// Distinct timestamps per batch: re-writing identical ones is an
		// upsert since the columnar rewrite path, which would shrink the
		// queried data set to one batch.
		base := time.Unix(int64(i)*100, 0)
		for k := range batch {
			batch[k].Time = base.Add(time.Duration(k) * time.Second)
		}
		if err := db.WriteBatchContext(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	const q = "SELECT mean(value) FROM cpu WHERE hostname = 'h1' GROUP BY time(10s)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmts, err := tsdb.ParseQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tsdb.ExecuteContext(context.Background(), store, "lms", stmts[0], tsdb.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C: compressed run state (DESIGN.md §13) ------------------------------

// loadFootprintDB builds the BenchmarkO3_TSDBMemoryFootprint data set:
// 1M points over 4 series, float+int fields, in-order 1000-point batches.
func loadFootprintDB(b *testing.B, points int) *tsdb.DB {
	b.Helper()
	const (
		perB   = 1000
		series = 4
	)
	db := newBenchDB(4)
	pts := make([]lineproto.Point, perB)
	for wrote := 0; wrote < points; wrote += perB {
		for k := range pts {
			n := wrote + k
			pts[k] = lineproto.Point{
				Measurement: "cpu",
				Tags:        map[string]string{"hostname": fmt.Sprintf("h%d", n%series)},
				Fields: map[string]lineproto.Value{
					"value": lineproto.Float(float64(n)),
					"ops":   lineproto.Int(int64(n % 4096)),
				},
				Time: time.Unix(int64(n/series), int64(n%series)),
			}
		}
		if err := db.WriteBatchContext(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkC1_CompressThroughput measures the chunk encoders over the 1M
// point footprint data set: points/s through Compress() and the heap
// bytes the compressed state releases.
func BenchmarkC1_CompressThroughput(b *testing.B) {
	const points = 1_000_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := loadFootprintDB(b, points)
		b.StartTimer()
		if db.Compress() == 0 {
			b.Fatal("nothing compressed")
		}
		runtime.KeepAlive(db)
	}
	b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkC2_CompressedSelect measures the phase-2 vectorized decode
// feeding the aggregation sweeps: a full-scan mean over 1M compressed
// points, per-worker arenas reused across calls. ns/op over points is the
// decode throughput EXPERIMENTS.md records.
func BenchmarkC2_CompressedSelect(b *testing.B) {
	const points = 1_000_000
	db := loadFootprintDB(b, points)
	db.SetQueryCacheTTL(0)
	db.Compress()
	q := tsdb.Query{Measurement: "cpu", Cols: []tsdb.AggCol{{Field: "value", Agg: tsdb.AggMean}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SelectContext(context.Background(), q)
		if err != nil || len(res) != 1 {
			b.Fatal(err, res)
		}
	}
	b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkC3_TSDBMemoryFootprintCompressed is the compressed steady
// state of BenchmarkO3_TSDBMemoryFootprint: same 1M-point load, then
// Compress(), then the live heap is measured. The PR 9 acceptance floor
// is < 8 bytes/point (raw columnar sits at ~26).
func BenchmarkC3_TSDBMemoryFootprintCompressed(b *testing.B) {
	const points = 1_000_000
	var bytesPerPoint float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()

		db := loadFootprintDB(b, points)
		db.Compress()

		b.StopTimer()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		bytesPerPoint = float64(after.HeapAlloc-before.HeapAlloc) / points
		if got := db.PointCount(); got != points {
			b.Fatalf("PointCount = %d, want %d", got, points)
		}
		runtime.KeepAlive(db)
		b.StartTimer()
	}
	b.ReportMetric(bytesPerPoint, "bytes/point")
	b.ReportMetric(points, "points")
}

// benchCompressedStoreDir builds a durable store holding 200k compressed
// points, checkpoints and closes it, returning the directory and the
// on-disk snapshot size (checkpoint frames store the chunks verbatim).
func benchCompressedStoreDir(b *testing.B, points int) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	st, err := tsdb.OpenStore(tsdb.StoreOptions{
		ShardsPerDB: 4,
		Durability:  tsdb.Durability{Dir: dir, Fsync: durable.FsyncOff},
	})
	if err != nil {
		b.Fatal(err)
	}
	db, err := st.OpenDatabase("lms")
	if err != nil {
		b.Fatal(err)
	}
	const perB, series = 1000, 4
	pts := make([]lineproto.Point, perB)
	for wrote := 0; wrote < points; wrote += perB {
		for k := range pts {
			n := wrote + k
			pts[k] = lineproto.Point{
				Measurement: "cpu",
				Tags:        map[string]string{"hostname": fmt.Sprintf("h%d", n%series)},
				Fields: map[string]lineproto.Value{
					"value": lineproto.Float(float64(n)),
					"ops":   lineproto.Int(int64(n % 4096)),
				},
				Time: time.Unix(int64(n/series), int64(n%series)),
			}
		}
		if err := db.WriteBatchContext(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
	db.Compress()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	var snapBytes int64
	matches, err := filepath.Glob(filepath.Join(dir, "lms", "checkpoint-*.snap"))
	if err != nil || len(matches) == 0 {
		b.Fatalf("no checkpoint written: %v", err)
	}
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			b.Fatal(err)
		}
		snapBytes += fi.Size()
	}
	return dir, snapBytes
}

// BenchmarkC4_CheckpointCompressed measures the checkpoint written over a
// compressed resident set: on-disk bytes/point (compressed frames are
// stored verbatim, no re-encoding) and the wall time of the final
// checkpoint+close.
func BenchmarkC4_CheckpointCompressed(b *testing.B) {
	const points = 200_000
	var snapBytes int64
	for i := 0; i < b.N; i++ {
		_, snapBytes = benchCompressedStoreDir(b, points)
	}
	b.ReportMetric(float64(snapBytes)/points, "snapbytes/point")
}

// BenchmarkC5_RecoveryCompressed measures reopening a store whose latest
// checkpoint holds compressed frames: recovery adopts the chunks without
// decoding, so startup cost is proportional to the compressed size.
func BenchmarkC5_RecoveryCompressed(b *testing.B) {
	const points = 200_000
	dir, _ := benchCompressedStoreDir(b, points)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tsdb.OpenStore(tsdb.StoreOptions{
			ShardsPerDB: 4,
			Durability:  tsdb.Durability{Dir: dir, Fsync: durable.FsyncOff},
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := st.DB("lms").PointCount(); got != points {
			b.Fatalf("recovered %d points, want %d", got, points)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
}

// --- O4: libusermetric --------------------------------------------------------

// newBenchHTTPServer serves a real tsdb over HTTP for the libusermetric
// transmission benches.
func newBenchHTTPServer(b *testing.B) string {
	b.Helper()
	store := tsdb.NewStore()
	srv := httptest.NewServer(tsdb.NewHandler(store))
	b.Cleanup(srv.Close)
	return srv.URL
}

// BenchmarkO4_UserMetricBuffered measures the per-metric cost with real
// HTTP transmission and batching (the design the paper chose: "buffers and
// sends batched messages"): one request per 500 metrics.
func BenchmarkO4_UserMetricBuffered(b *testing.B) {
	c, err := usermetric.New(usermetric.Config{
		Endpoint:      newBenchHTTPServer(b),
		DefaultTags:   map[string]string{"hostname": "h1"},
		FlushInterval: -1,
		MaxBatch:      500,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Metric("pressure", float64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = c.Flush()
}

// BenchmarkO4_UserMetricUnbuffered is the ablation: one HTTP request per
// metric (what a naive, non-buffering client would do).
func BenchmarkO4_UserMetricUnbuffered(b *testing.B) {
	c, err := usermetric.New(usermetric.Config{
		Endpoint:      newBenchHTTPServer(b),
		DefaultTags:   map[string]string{"hostname": "h1"},
		FlushInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Metric("pressure", float64(i), nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- O5: pub/sub publisher ----------------------------------------------------

// BenchmarkO5_PubSubPublish measures publisher fan-out to 4 subscribers
// with a draining reader each.
func BenchmarkO5_PubSubPublish(b *testing.B) {
	pub, err := pubsub.NewPublisher("127.0.0.1:0", 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	const nSubs = 4
	for i := 0; i < nSubs; i++ {
		sub, err := pubsub.Dial(pub.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		if err := sub.Subscribe("metrics/"); err != nil {
			b.Fatal(err)
		}
		go func() {
			for range sub.Messages() {
			}
		}()
	}
	// Wait for subscriptions to be active.
	deadline := time.Now().Add(5 * time.Second)
	for pub.SubscriberCount() < nSubs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	payload := []byte("cpu,hostname=h1 value=1 1500000000000000000\n")
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish("metrics/cpu", payload)
	}
}

// BenchmarkO5_PubSubNoSubscribers is the ablation: publisher attached but
// nobody listening (the common deployment until an analyzer connects).
func BenchmarkO5_PubSubNoSubscribers(b *testing.B) {
	pub, err := pubsub.NewPublisher("127.0.0.1:0", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	payload := []byte("cpu,hostname=h1 value=1 1500000000000000000\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish("metrics/cpu", payload)
	}
}

// --- O6: HPM collection ---------------------------------------------------------

// BenchmarkO6_HPMCollection measures one full likwid-style measurement
// cycle on a 20-core node: stop, evaluate all MEM_DP metrics for all
// threads, restart, emit points.
func BenchmarkO6_HPMCollection(b *testing.B) {
	machine, err := hpm.NewMachine(benchTopo())
	if err != nil {
		b.Fatal(err)
	}
	w := workload.NewTriad(20, 1e12)
	for core := 0; core < 20; core++ {
		if err := machine.SetRates(core, w.ProfileAt(1, core).Rates(2200)); err != nil {
			b.Fatal(err)
		}
	}
	plugin := &collector.HPMPlugin{Machine: machine, GroupName: "MEM_DP"}
	if _, err := plugin.Collect(time.Unix(0, 0)); err != nil { // arm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = machine.Advance(60)
		pts, err := plugin.Collect(time.Unix(int64(i+1)*60, 0))
		if err != nil || len(pts) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkO6_HPMFormulaEval isolates the formula evaluator, the innermost
// loop of metric derivation.
func BenchmarkO6_HPMFormulaEval(b *testing.B) {
	f := hpm.MustCompileFormula("1.0E-06*(PMC0*2.0+PMC1+PMC2*4.0)/time")
	vars := map[string]float64{"PMC0": 1e9, "PMC1": 5e8, "PMC2": 2e9, "time": 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Eval(vars); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Q: query path (DESIGN.md §4/§6) ----------------------------------------

// seedQueryStore fills an n-shard database "lms" with 8 measurements x 4 hostname series
// x 7200 points: the queried measurement carries the shape of an 8-hour
// job at 4-second sampling, heavy enough that the aggregation engine (not
// goroutine scheduling) dominates the mixed benchmark below.
func seedQueryStore(b *testing.B, shards int) *tsdb.Store {
	b.Helper()
	store := tsdb.NewStore()
	store.ShardsPerDB = shards
	db := store.CreateDatabase("lms")
	for m := 0; m < 8; m++ {
		for h := 0; h < 4; h++ {
			pts := make([]lineproto.Point, 0, 7200)
			for i := 0; i < 7200; i++ {
				pts = append(pts, lineproto.Point{
					Measurement: fmt.Sprintf("qmeas%02d", m),
					Tags:        map[string]string{"hostname": fmt.Sprintf("h%d", h)},
					Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
					Time:        time.Unix(int64(i*4+h), 0),
				})
			}
			if err := db.WriteBatchContext(context.Background(), pts); err != nil {
				b.Fatal(err)
			}
		}
	}
	return store
}

var windowQuery = tsdb.Query{
	Measurement: "qmeas00",
	Start:       time.Unix(0, 0),
	End:         time.Unix(7200*4, 0),
	GroupByTags: []string{"hostname"},
	Every:       60 * time.Second,
	Cols:        []tsdb.AggCol{{Field: "*", Agg: tsdb.AggMean}},
}

// BenchmarkQ1_SelectWindowParallel measures the mixed workload the paper's
// dashboards create: each round runs 4 WriteBatch calls and 2 windowed
// panel aggregations concurrently against the *same measurement* of an
// 8-shard DB. Before the two-phase engine a Select held the full shard
// lock for its whole filter+aggregate pass, so every write in the round
// stalled behind hundreds of µs of aggregation; now a writer only ever
// overlaps with the RLock'd snapshot. ns/op is the round completion time;
// max-write-stall-ns is the worst single WriteBatch latency observed while
// the readers were aggregating. The cache is disabled so the engine itself
// is measured (BenchmarkQ3 measures the cache).
func BenchmarkQ1_SelectWindowParallel(b *testing.B) {
	db := seedQueryStore(b, 8).DB("lms")
	db.SetQueryCacheTTL(0)
	const writers, readers = 4, 2
	var off atomic.Int64
	var maxStall atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Strictly increasing timestamps beyond the queried window:
				// appends stay in order and the readers' range cut keeps
				// their work bounded as the benchmark grows the series.
				base := 7200*4 + off.Add(100)
				host := fmt.Sprintf("w%d", w)
				pts := make([]lineproto.Point, 100)
				for k := range pts {
					pts[k] = lineproto.Point{
						Measurement: "qmeas00",
						Tags:        map[string]string{"hostname": host},
						Fields:      map[string]lineproto.Value{"value": lineproto.Float(1)},
						Time:        time.Unix(base+int64(k), 0),
					}
				}
				t0 := time.Now()
				if err := db.WriteBatchContext(context.Background(), pts); err != nil {
					b.Error(err)
					return
				}
				d := time.Since(t0).Nanoseconds()
				for {
					cur := maxStall.Load()
					if d <= cur || maxStall.CompareAndSwap(cur, d) {
						break
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := db.SelectContext(context.Background(), windowQuery); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(100*writers*b.N)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(readers*b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(maxStall.Load()), "max-write-stall-ns")
}

// BenchmarkQ2_SelectRawLimit measures the Limit pushdown on a raw query:
// LIMIT 10 over a 100k-point series. The seed engine materialized and
// copied every row before truncating; phase 1 now clamps the snapshot to
// the limit.
func BenchmarkQ2_SelectRawLimit(b *testing.B) {
	db := tsdb.NewStore().CreateDatabase("lms")
	db.SetQueryCacheTTL(0)
	pts := make([]lineproto.Point, 0, 100000)
	for i := 0; i < 100000; i++ {
		pts = append(pts, lineproto.Point{
			Measurement: "raw",
			Tags:        map[string]string{"hostname": "h1"},
			Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(i))},
			Time:        time.Unix(int64(i), 0),
		})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		b.Fatal(err)
	}
	q := tsdb.Query{Measurement: "raw", Limit: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SelectContext(context.Background(), q)
		if err != nil || len(res[0].Rows) != 10 {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3_SelectCachedRefresh measures the dashboard viewer's panel
// refresh pattern: the identical windowed query re-issued inside the cache
// TTL, served from the query-result cache.
func BenchmarkQ3_SelectCachedRefresh(b *testing.B) {
	db := seedQueryStore(b, 8).DB("lms")
	db.SetQueryCacheTTL(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SelectContext(context.Background(), windowQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits, _ := db.QueryCacheStats(); b.N > 1 && hits == 0 {
		b.Fatal("cache never hit")
	}
}

// BenchmarkQ4_RemoteQuery measures the query API's two doors over the same
// windowed panel query (DESIGN.md §7): sub-bench "local" runs pre-parsed
// statements on a LocalQuerier (no string round-trip, no transport),
// sub-bench "remote" sends them through the HTTP Client — URL encoding,
// GET /query, chunk-aware JSON stream decode — against the tsdb handler on
// a real listener, i.e. the split lms-dashboard / lms-db deployment. The
// gap between the two is the price of scale-out per panel refresh. The
// cache is disabled so the full path is measured every iteration.
func BenchmarkQ4_RemoteQuery(b *testing.B) {
	store := seedQueryStore(b, 8)
	store.DB("lms").SetQueryCacheTTL(0)
	stmt := tsdb.SelectStatement(tsdb.Query{
		Measurement: windowQuery.Measurement,
		Start:       windowQuery.Start,
		End:         windowQuery.End,
		GroupByTags: windowQuery.GroupByTags,
		Every:       windowQuery.Every,
	}, tsdb.AggCol{Field: "value", Agg: tsdb.AggMean})
	req := tsdb.Request{Database: "lms", Statements: []tsdb.Statement{stmt}}
	ctx := context.Background()

	run := func(b *testing.B, qr tsdb.Querier) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			resp, err := qr.Query(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Results) != 1 || len(resp.Results[0].Series) != 4 {
				b.Fatalf("unexpected result shape %+v", resp.Results)
			}
		}
	}
	b.Run("local", func(b *testing.B) {
		run(b, tsdb.LocalQuerier{Store: store})
	})
	b.Run("remote", func(b *testing.B) {
		srv := httptest.NewServer(tsdb.NewHandler(store))
		defer srv.Close()
		run(b, &tsdb.Client{BaseURL: srv.URL, Database: "lms"})
	})
}

// --- X1: extension, stream analyzer -----------------------------------------

// BenchmarkX1_StreamAnalyzerHandle measures the online analyzer's cost per
// published 100-point batch (decode + aggregate + rule feed).
func BenchmarkX1_StreamAnalyzerHandle(b *testing.B) {
	a := stream.New(stream.Config{})
	payload, err := lineproto.Encode(routerBatch(100, "h1"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Handle("metrics/cpu", payload)
	}
	_, processed, _ := a.Snapshot()
	if processed == 0 {
		b.Fatal("nothing processed")
	}
}

// --- D1..D3: durable storage engine (DESIGN.md §9) -------------------------

// durBatch builds one 100-point in-order agent flush (float + int fields)
// starting at batch index i.
func durBatch(i int) []lineproto.Point {
	pts := make([]lineproto.Point, 0, 100)
	base := int64(1600000000_000000000) + int64(i)*100*int64(time.Second)
	for j := 0; j < 100; j++ {
		pts = append(pts, lineproto.Point{
			Measurement: "cpu",
			Tags:        map[string]string{"hostname": "node01"},
			Fields: map[string]lineproto.Value{
				"user": lineproto.Float(float64(i*100 + j)),
				"ctx":  lineproto.Int(int64(j)),
			},
			Time: time.Unix(0, base+int64(j)*int64(time.Second)),
		})
	}
	return pts
}

var durPolicies = []durable.FsyncPolicy{durable.FsyncOff, durable.FsyncEveryInterval, durable.FsyncPerBatch}

// BenchmarkD1_WALAppend prices one WAL append of an encoded 100-point
// batch under each fsync policy — the durability tax on the
// acknowledgement path, isolated from the in-memory write.
func BenchmarkD1_WALAppend(b *testing.B) {
	payload := durable.AppendBatch(nil, durBatch(0), time.Now().UnixNano())
	for _, pol := range durPolicies {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			w, err := durable.OpenWAL(b.TempDir(), 0, durable.Options{Fsync: pol}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkD2_IngestDurable measures WriteBatch end to end — encode, WAL
// append, columnar apply — against the in-memory baseline, one sub-bench
// per fsync policy. The closing sub-metric diskB/point is the checkpoint
// footprint after a clean Close.
func BenchmarkD2_IngestDurable(b *testing.B) {
	run := func(b *testing.B, db *tsdb.DB) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.WriteBatchContext(context.Background(), durBatch(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
	}
	b.Run("volatile", func(b *testing.B) {
		db := tsdb.NewStore().CreateDatabase("bench")
		defer db.Close()
		run(b, db)
	})
	for _, pol := range durPolicies {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			dir := b.TempDir()
			st, err := tsdb.OpenStore(tsdb.StoreOptions{Durability: tsdb.Durability{Dir: dir, Fsync: pol}})
			if err != nil {
				b.Fatal(err)
			}
			db, err := st.OpenDatabase("bench")
			if err != nil {
				b.Fatal(err)
			}
			run(b, db)
			if err := st.Close(); err != nil { // final checkpoint
				b.Fatal(err)
			}
			var disk int64
			_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				if info, err := d.Info(); err == nil {
					disk += info.Size()
				}
				return nil
			})
			b.ReportMetric(float64(disk)/float64(100*b.N), "diskB/point")
		})
	}
}

// BenchmarkD3_Recovery measures startup recovery of a 100k-point
// database in points/s replayed: once from the raw WAL (crash, no
// checkpoint — the worst case) and once from a clean checkpoint.
func BenchmarkD3_Recovery(b *testing.B) {
	const batches = 1000 // x100 points
	seed := func(b *testing.B, clean bool) string {
		b.Helper()
		dir := b.TempDir()
		st, err := tsdb.OpenStore(tsdb.StoreOptions{Durability: tsdb.Durability{Dir: dir, Fsync: durable.FsyncOff}})
		if err != nil {
			b.Fatal(err)
		}
		db, err := st.OpenDatabase("bench")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			if err := db.WriteBatchContext(context.Background(), durBatch(i)); err != nil {
				b.Fatal(err)
			}
		}
		if clean {
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		} else {
			st.Abort()
		}
		return dir
	}
	run := func(b *testing.B, dir string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := tsdb.OpenStore(tsdb.StoreOptions{Durability: tsdb.Durability{Dir: dir, Fsync: durable.FsyncOff}})
			if err != nil {
				b.Fatal(err)
			}
			if got := st.DB("bench").PointCount(); got != 100*batches {
				b.Fatalf("recovered %d points, want %d", got, 100*batches)
			}
			st.Abort() // leave the directory exactly as found
		}
		b.ReportMetric(float64(100*batches*b.N)/b.Elapsed().Seconds(), "points/s")
	}
	b.Run("wal-replay", func(b *testing.B) { run(b, seed(b, false)) })
	b.Run("checkpoint", func(b *testing.B) { run(b, seed(b, true)) })
}

// --- E5b/E6: clustered lms-db (DESIGN.md §12) -----------------------------

// benchCluster stands up a 3-node in-process cluster (three real stores
// behind real HTTP handlers) plus a coordinator, and returns the
// coordinator and a teardown.
func benchCluster(b *testing.B, seedPoints int) *cluster.Cluster {
	b.Helper()
	var peers []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(tsdb.NewHandler(tsdb.NewStore()))
		b.Cleanup(srv.Close)
		peers = append(peers, srv.URL)
	}
	clu, err := cluster.New(cluster.Config{Peers: peers, Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = clu.Close() })
	if seedPoints > 0 {
		sink := clu.SinkFor("lms")
		base := time.Unix(1000, 0).UTC()
		for off := 0; off < seedPoints; off += 100 {
			batch := make([]lineproto.Point, 0, 100)
			for i := 0; i < 100 && off+i < seedPoints; i++ {
				batch = append(batch, lineproto.Point{
					Measurement: fmt.Sprintf("cpu%d", (off+i)%8),
					Tags:        map[string]string{"hostname": fmt.Sprintf("h%d", (off+i)%16)},
					Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(off + i))},
					Time:        base.Add(time.Duration(off+i) * time.Second),
				})
			}
			if err := sink.WritePoints(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := clu.Ensure(context.Background(), "lms"); err != nil {
			b.Fatal(err)
		}
	}
	return clu
}

// BenchmarkE5_ClusterIngest measures the replicated write path: each
// 100-point batch is ring-split and fanned to R=2 of 3 nodes over HTTP,
// acknowledged at quorum.
func BenchmarkE5_ClusterIngest(b *testing.B) {
	clu := benchCluster(b, 0)
	sink := clu.SinkFor("lms")
	base := time.Unix(1000, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]lineproto.Point, 0, 100)
		for j := 0; j < 100; j++ {
			batch = append(batch, lineproto.Point{
				Measurement: fmt.Sprintf("cpu%d", j%8),
				Tags:        map[string]string{"hostname": fmt.Sprintf("h%d", j%16)},
				Fields:      map[string]lineproto.Value{"value": lineproto.Float(float64(i*100 + j))},
				Time:        base.Add(time.Duration(i*100+j) * time.Millisecond),
			})
		}
		if err := sink.WritePoints(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkE6_ScatterGatherQuery measures the distributed read path over
// a seeded cluster: a routed aggregation (one owner replica answers
// whole) and a fanned metadata union across all nodes.
func BenchmarkE6_ScatterGatherQuery(b *testing.B) {
	clu := benchCluster(b, 4000)
	qr := clu.Querier()
	ctx := context.Background()
	cases := []struct{ name, q string }{
		{"routed-agg", "SELECT mean(value) FROM cpu3 GROUP BY time(60s), hostname"},
		{"fan-union", "SHOW MEASUREMENTS"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := qr.Query(ctx, tsdb.Request{Database: "lms", RawQuery: c.q})
				if err != nil {
					b.Fatal(err)
				}
				if res.Err() != nil {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// --- T1: tracing-off overhead guard (DESIGN.md §14) ------------------------

// BenchmarkT1_TracingOff is the CI guard for the tracing layer's
// zero-cost-when-off claim. Part one asserts the claim outright: the
// complete per-request machinery a disabled ring adds to the hot paths —
// StartTrace on a nil ring, TraceFrom on a context carrying no trace, and
// spans started on the resulting nil trace — must allocate nothing, so the
// disabled-tracing query path costs 0 extra bytes/op over the pre-tracing
// engine. Part two benchmarks the same cached panel refresh as Q3 through
// SelectContext with tracing off; against BENCH_pr9.json's Q3 the B/op
// must not move, and BENCH_pr10.json records it for future diffs.
func BenchmarkT1_TracingOff(b *testing.B) {
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		var ring *obs.TraceRing
		tr := ring.StartTrace("bench", "")
		sp := tr.Start("phase").Attr("k", "v").AttrInt("n", 1)
		sp.End()
		obs.TraceFrom(ctx).Finish()
		tr.Finish()
	}); allocs != 0 {
		b.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}

	db := seedQueryStore(b, 8).DB("lms")
	db.SetQueryCacheTTL(time.Hour)
	if _, err := db.SelectContext(ctx, windowQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SelectContext(ctx, windowQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits, _ := db.QueryCacheStats(); b.N > 1 && hits == 0 {
		b.Fatal("cache never hit")
	}
}
