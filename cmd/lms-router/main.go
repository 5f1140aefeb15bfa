// Command lms-router runs the standalone LMS metrics router. It mimics the
// InfluxDB /write interface, tags incoming metrics with job information
// from its tag store, forwards them in per-destination batches to the
// database back-end, optionally duplicates job metrics into per-user
// databases and publishes everything on a ZeroMQ-style PUB socket.
//
// Job signals are received on POST /api/job/start and /api/job/end with a
// JSON body {"jobid": "...", "username": "...", "nodes": ["h1", ...]}.
//
// GET /metrics exposes the router's own pipeline counters (received,
// forwarded, dropped, shed) in the Prometheus text format. Ingest is
// bounded the same way as lms-db: -max-body-mb (413 on oversized bodies)
// and -max-inflight-reqs / -max-inflight-mb (429 + Retry-After on
// overload).
//
// Observability (DESIGN.md §14): each /write starts a distributed trace
// whose id fans out to the lms-db replicas via X-Lms-Trace; the completed
// traces are served on GET /debug/traces (-traces sets the ring capacity,
// 0 disables). -debug-addr starts a separate listener with net/http/pprof
// plus the same /debug/traces; -log-level selects the log verbosity.
//
// With -cluster-peers the router forwards ring-aware (DESIGN.md §12):
// each batch is split by the consistent-hash ring over (db, measurement),
// fanned to the -replication owning lms-db replicas, and acknowledged at
// -write-quorum; a replica that misses an acknowledged write gets its
// share parked in the durable hinted-handoff queue under -hints-dir and
// replayed when it heals. -db-url is ignored in cluster mode.
//
// SIGINT/SIGTERM shut the router down gracefully (exit status 0):
// in-flight requests finish, then the hint drain stops and the hint queues
// and the publisher close.
//
// Usage:
//
//	lms-router -addr :8090 -db-url http://localhost:8086 -db lms \
//	           -user-dbs -publish 0.0.0.0:5571
//
//	lms-router -addr :8090 -db lms \
//	           -cluster-peers http://db1:8086,http://db2:8086,http://db3:8086 \
//	           -replication 2 -write-quorum 1 -hints-dir /var/lib/lms-router/hints
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
	"repro/internal/pubsub"
	"repro/internal/router"
	"repro/internal/tsdb"
)

func main() { cli.Main("lms-router", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lms-router", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	dbURL := fs.String("db-url", "http://127.0.0.1:8086", "database back-end base URL (single-node mode)")
	dbName := fs.String("db", "lms", "primary database name")
	userDBs := fs.Bool("user-dbs", false, "duplicate job metrics into per-user databases")
	publish := fs.String("publish", "", "ZeroMQ-style publisher listen address (empty = off)")
	hwm := fs.Int("publish-hwm", 0, "publisher high-water mark (0 = default)")
	maxBodyMB := fs.Int64("max-body-mb", 0, "refuse /write bodies above this many MiB with 413 (0 = 64)")
	maxInflightMB := fs.Int64("max-inflight-mb", 0, "shed /write with 429 beyond this many MiB of in-flight bodies (0 = unlimited)")
	maxInflightReqs := fs.Int64("max-inflight-reqs", 0, "shed /write with 429 beyond this many concurrent requests (0 = unlimited)")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated base URLs of every lms-db cluster node (empty = single -db-url back-end)")
	replication := fs.Int("replication", 0, "replicas per (db, measurement) in cluster mode (0 = 2)")
	writeQuorum := fs.Int("write-quorum", 0, "replica acks required before a write acknowledges (0 = 1)")
	hintsDir := fs.String("hints-dir", "", "durable hinted-handoff directory in cluster mode (empty = hints in memory only)")
	debugAddr := fs.String("debug-addr", "", "separate listener for net/http/pprof and /debug/traces (empty = off)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error or off")
	traceBuf := fs.Int("traces", 256, "completed traces kept for /debug/traces (0 = tracing off)")
	if done, err := cli.Parse(fs, args, stdout); done || err != nil {
		return err
	}
	peers := cli.SplitList(*clusterPeers)
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return cli.UsageErr(fs, "%v", err)
	}
	obs.SetLogLevel(level)

	cfg := router.Config{
		MaxBodyBytes:        *maxBodyMB << 20,
		MaxInFlightRequests: *maxInflightReqs,
		MaxInFlightBytes:    *maxInflightMB << 20,
	}
	if *traceBuf > 0 {
		cfg.Traces = obs.NewTraceRing(*traceBuf)
	}
	var clu *cluster.Cluster
	if len(peers) > 0 {
		var err error
		clu, err = cluster.New(cluster.Config{
			Peers:       peers,
			Replication: *replication,
			WriteQuorum: *writeQuorum,
			HintsDir:    *hintsDir,
		})
		if err != nil {
			return err
		}
		defer clu.Close()
		cfg.Primary = clu.SinkFor(*dbName)
		if *userDBs {
			cfg.UserSink = func(user string) router.Sink {
				return clu.SinkFor("user_" + user)
			}
		}
	} else {
		cfg.Primary = &tsdb.Client{BaseURL: *dbURL, Database: *dbName}
		if *userDBs {
			cfg.UserSink = func(user string) router.Sink {
				return &tsdb.Client{BaseURL: *dbURL, Database: "user_" + user}
			}
		}
	}
	if *publish != "" {
		pub, err := pubsub.NewPublisher(*publish, *hwm)
		if err != nil {
			return err
		}
		defer pub.Close()
		cfg.Publisher = pub
		fmt.Fprintf(stdout, "lms-router: publishing on %s\n", pub.Addr())
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	if clu != nil {
		clu.RegisterMetrics(rt.Metrics())
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
		go func() { _ = http.Serve(debugLn, obs.DebugMux(cfg.Traces)) }()
		fmt.Fprintf(stdout, "lms-router: pprof and /debug/traces on %s\n", debugLn.Addr())
	}
	if clu != nil {
		fmt.Fprintf(stdout, "lms-router: forwarding to %d-node cluster (db %q, R=%d, W=%d, ring %x) on %s\n",
			len(clu.Ring().Nodes()), *dbName, clu.Replication(), clu.WriteQuorum(), clu.Ring().Generation(), ln.Addr())
	} else {
		fmt.Fprintf(stdout, "lms-router: forwarding to %s (db %q) on %s\n", *dbURL, *dbName, ln.Addr())
	}
	return cli.Serve(ln, rt)
}
