// Command lms-db runs the standalone time-series database back-end of the
// LIKWID Monitoring Stack: an InfluxDB-compatible HTTP server
// (POST /write, GET /query, GET /ping) that also exposes its own health
// on GET /metrics (Prometheus text format, DESIGN.md §10).
//
// Ingest is bounded: -max-body-mb refuses oversized /write bodies with
// 413, and -max-inflight-reqs / -max-inflight-mb shed excess concurrent
// load with 429 + Retry-After. -slow-query logs queries above a latency
// threshold (the line carries the request's trace id).
//
// Observability (DESIGN.md §14): every /write and /query is traced into a
// bounded in-memory ring served on GET /debug/traces (-traces sets the
// capacity, 0 disables); -debug-addr starts a separate listener with the
// net/http/pprof endpoints and the same /debug/traces; -log-level selects
// the process log verbosity (debug, info, warn, error, off).
//
// The store is shard-partitioned per database for multi-core ingest; the
// -shards flag overrides the lock-shard count (default: GOMAXPROCS).
//
// In cluster mode (-cluster-peers with -node-id, DESIGN.md §12) the node
// joins a consistent-hash ring with its peers: /query requests are
// coordinated across the ring — each statement routed to the replicas
// owning its measurement, metadata statements union-merged — while /write
// stays local (the router places writes on the ring before they arrive).
// -replication sets the replica count R used for query routing; it must
// match the routers' setting.
//
// With -data-dir the store is durable (DESIGN.md §9): batches are logged
// to a write-ahead log before they are acknowledged (-fsync selects the
// sync policy), checkpoints persist the columnar state, and a restart
// recovers every database in the directory. -segment-bytes and
// -checkpoint-bytes tune WAL rotation and checkpoint cadence (the chaos
// harness shrinks both so crash-kills land mid-checkpoint). SIGINT/SIGTERM shut the
// server down gracefully: in-flight requests finish, the WAL is flushed
// and a final checkpoint is written.
//
// Usage:
//
//	lms-db -addr :8086 -db lms -retention 720h -shards 8 \
//	       -data-dir /var/lib/lms-db -fsync batch
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

func main() { cli.Main("lms-db", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("lms-db", flag.ContinueOnError)
	addr := fs.String("addr", ":8086", "listen address")
	dbName := fs.String("db", "lms", "database to create at startup")
	retention := fs.Duration("retention", 0, "drop data older than this (0 = keep forever)")
	fs.Duration("compress-after", 0, "ignored: rows are encoded as they are written (kept so old command lines still start)")
	shards := fs.Int("shards", 0, "lock shards per database (0 = GOMAXPROCS)")
	dataDir := fs.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	fsync := fs.String("fsync", "batch", "WAL fsync policy with -data-dir: batch, interval or off")
	segmentBytes := fs.Int64("segment-bytes", 0, "rotate WAL segments past this many bytes with -data-dir (0 = 8 MiB)")
	checkpointBytes := fs.Int64("checkpoint-bytes", 0, "checkpoint once the live WAL exceeds this many bytes with -data-dir (0 = 32 MiB)")
	slowQuery := fs.Duration("slow-query", 0, "log /query requests at least this slow (0 = off)")
	maxBodyMB := fs.Int64("max-body-mb", 0, "refuse /write bodies above this many MiB with 413 (0 = 64)")
	maxInflightMB := fs.Int64("max-inflight-mb", 0, "shed /write with 429 beyond this many MiB of in-flight bodies (0 = unlimited)")
	maxInflightReqs := fs.Int64("max-inflight-reqs", 0, "shed /write with 429 beyond this many concurrent requests (0 = unlimited)")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated base URLs of every cluster node, self included (empty = single node)")
	nodeID := fs.String("node-id", "", "this node's own entry in -cluster-peers")
	replication := fs.Int("replication", 0, "replicas per (db, measurement) in cluster mode (0 = 2)")
	debugAddr := fs.String("debug-addr", "", "separate listener for net/http/pprof and /debug/traces (empty = off)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error or off")
	traceBuf := fs.Int("traces", 256, "completed traces kept for /debug/traces (0 = tracing off)")
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	peers := cli.SplitList(*clusterPeers)
	if len(peers) > 0 && *nodeID == "" {
		return cli.UsageErr(fs, "-cluster-peers requires -node-id")
	}
	policy, err := durable.ParseFsyncPolicy(*fsync)
	if err != nil {
		return cli.UsageErr(fs, "%v", err)
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return cli.UsageErr(fs, "%v", err)
	}
	obs.SetLogLevel(level)

	store, err := tsdb.OpenStore(tsdb.StoreOptions{
		ShardsPerDB: *shards,
		Retention:   *retention,
		Durability: tsdb.Durability{
			Dir: *dataDir, Fsync: policy,
			SegmentBytes: *segmentBytes, CheckpointBytes: *checkpointBytes,
		},
	})
	if err != nil {
		return err
	}
	// Deferred closes run newest first once Serve has drained the requests
	// (or a later start-up step failed): the debug listener, the cluster,
	// then the store's WAL flush and final checkpoint, which must not race
	// an in-flight /write.
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintln(stdout, "lms-db: shut down")
		}
	}()
	db, err := store.OpenDatabase(*dbName)
	if err != nil {
		return err
	}
	var ring *obs.TraceRing
	if *traceBuf > 0 {
		ring = obs.NewTraceRing(*traceBuf)
		store.SetTraces(ring)
	}
	handler := tsdb.NewHandler(store)
	handler.SlowQueryThreshold = *slowQuery
	handler.MaxBodyBytes = *maxBodyMB << 20
	handler.SetAdmission(*maxInflightReqs, *maxInflightMB<<20)
	var clu *cluster.Cluster
	if len(peers) > 0 {
		clu, err = cluster.New(cluster.Config{
			Peers:       peers,
			Self:        *nodeID,
			SelfStore:   store,
			Replication: *replication,
		})
		if err != nil {
			return err
		}
		defer clu.Close()
		handler.Distributed = clu.Querier()
		clu.RegisterMetrics(store.Metrics().Registry())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		defer debugLn.Close()
		go func() { _ = http.Serve(debugLn, obs.DebugMux(ring)) }()
		fmt.Fprintf(stdout, "lms-db: pprof and /debug/traces on %s\n", debugLn.Addr())
	}
	fmt.Fprintf(stdout, "lms-db: serving database %q (%d shards) on %s\n",
		*dbName, db.ShardCount(), ln.Addr())
	if clu != nil {
		fmt.Fprintf(stdout, "lms-db: cluster mode as %s (%d nodes, R=%d, ring %x)\n",
			*nodeID, len(clu.Ring().Nodes()), clu.Replication(), clu.Ring().Generation())
	}
	if *dataDir != "" {
		fmt.Fprintf(stdout, "lms-db: durable storage in %s (fsync=%s, %d databases recovered)\n",
			*dataDir, policy, len(store.Databases()))
	}
	return cli.Serve(ln, handler)
}
