// Package core wires the LIKWID Monitoring Stack together: database,
// metrics router, pub/sub publisher, dashboard agent, web viewer and
// analysis (paper Fig. 1). The components stay loosely coupled — each is
// usable standalone through its own package — and core provides the
// "complete stack" composition plus the cluster simulation driver
// (sim.go) that stands in for real compute nodes.
package core

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/dashboard"
	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

// StackConfig configures a full LMS deployment.
type StackConfig struct {
	// DBName is the primary database (default "lms").
	DBName string
	// PerUserDBs enables duplication of job metrics into "user_<name>"
	// databases.
	PerUserDBs bool
	// PubSubAddr, when non-empty, starts the ZeroMQ-style publisher on the
	// address (e.g. "127.0.0.1:0").
	PubSubAddr string
	// DataDir enables the durable storage engine (WAL + on-disk columnar
	// checkpoints, DESIGN.md §9): every database lives under this
	// directory and survives restarts. Empty keeps the stack in memory
	// only. Call Stack.Close on shutdown so the final checkpoint lands.
	DataDir string
	// FsyncPolicy selects when WAL appends reach stable storage when
	// DataDir is set: "batch" (default; sync before acknowledging every
	// batch), "interval" or "off".
	FsyncPolicy string
	// TSDBShards is the lock-shard count per database (0 = GOMAXPROCS).
	TSDBShards int
	// PeakMemBWMBs / PeakDPMFlops parameterize the pattern decision tree.
	PeakMemBWMBs float64
	PeakDPMFlops float64
	// Now overrides the router clock (simulations inject simulated time).
	Now func() time.Time

	// TraceBuffer is the capacity of the completed-trace ring (DESIGN.md
	// §14): the last N traced requests served on /debug/traces of the
	// store's HTTP handler and the router. 0 disables tracing entirely —
	// the request paths then pay only nil checks.
	TraceBuffer int
}

// Stack is one assembled LMS instance.
type Stack struct {
	Store     *tsdb.Store
	DB        *tsdb.DB
	Router    *router.Router
	Publisher *pubsub.Publisher
	Evaluator *analysis.Evaluator
	Agent     *dashboard.Agent
	Viewer    *dashboard.Viewer

	// Querier is the read-side API every consumer of this stack is wired
	// through: a LocalQuerier over Store. The same consumers accept a
	// tsdb.Client instead to read from a remote lms-db, or a cluster's
	// DistributedQuerier (cluster.New) to read from a ring.
	Querier tsdb.Querier

	DBHandler *tsdb.Handler // InfluxDB-compatible HTTP API of the store

	// Traces is the completed-trace ring shared by the router and the
	// store handler (StackConfig.TraceBuffer); nil when tracing is off.
	Traces *obs.TraceRing

	cfg StackConfig
}

// NewStack builds and wires all components.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.DBName == "" {
		cfg.DBName = "lms"
	}
	fsync, err := durable.ParseFsyncPolicy(cfg.FsyncPolicy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	store, err := tsdb.OpenStore(tsdb.StoreOptions{
		ShardsPerDB: cfg.TSDBShards,
		Durability:  tsdb.Durability{Dir: cfg.DataDir, Fsync: fsync},
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Past this point a constructor failure must close the store, or the
	// recovered databases' WAL descriptors (and the directory lock) leak.
	db, err := store.OpenDatabase(cfg.DBName)
	if err != nil {
		_ = store.Close()
		return nil, fmt.Errorf("core: %w", err)
	}

	var pub *pubsub.Publisher
	if cfg.PubSubAddr != "" {
		pub, err = pubsub.NewPublisher(cfg.PubSubAddr, 0)
		if err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	var traces *obs.TraceRing
	if cfg.TraceBuffer > 0 {
		traces = obs.NewTraceRing(cfg.TraceBuffer)
		store.SetTraces(traces)
	}

	rcfg := router.Config{
		Primary:   router.LocalSink{DB: db},
		Publisher: pub,
		Now:       cfg.Now,
		Traces:    traces,
	}
	if cfg.PerUserDBs {
		rcfg.UserSink = func(user string) router.Sink {
			db, err := store.OpenDatabase("user_" + user)
			if err != nil {
				return failedSink{fmt.Errorf("core: %w", err)}
			}
			return router.LocalSink{DB: db}
		}
	}
	rt, err := router.New(rcfg)
	if err != nil {
		if pub != nil {
			_ = pub.Close()
		}
		_ = store.Close()
		return nil, err
	}

	qr := tsdb.LocalQuerier{Store: store}
	ev := &analysis.Evaluator{
		Querier:      qr,
		Database:     cfg.DBName,
		PeakMemBWMBs: cfg.PeakMemBWMBs,
		PeakDPMFlops: cfg.PeakDPMFlops,
		Now:          cfg.Now,
	}
	agent := &dashboard.Agent{Querier: qr, Database: cfg.DBName, Evaluator: ev}
	viewer := dashboard.NewViewer(qr, cfg.DBName, rt.Jobs(), agent)
	if cfg.Now != nil {
		viewer.Now = cfg.Now
	}

	return &Stack{
		Store:     store,
		DB:        db,
		Router:    rt,
		Publisher: pub,
		Evaluator: ev,
		Agent:     agent,
		Viewer:    viewer,
		Querier:   qr,
		DBHandler: tsdb.NewHandler(store),
		Traces:    traces,
		cfg:       cfg,
	}, nil
}

// failedSink refuses every batch with the error that kept its database from
// opening, so the router counts the points as dropped instead of
// acknowledging them into a database nobody will ever read.
type failedSink struct{ err error }

func (s failedSink) WritePoints([]lineproto.Point) error { return s.err }

// DBName returns the primary database name.
func (s *Stack) DBName() string { return s.cfg.DBName }

// Close releases network resources (the publisher) and closes the store:
// on a durable stack (StackConfig.DataDir) that flushes the WAL and
// writes the final checkpoint, so skipping Close risks replaying the WAL
// tail on the next start instead of loading one clean checkpoint.
func (s *Stack) Close() error {
	var perr error
	if s.Publisher != nil {
		perr = s.Publisher.Close()
	}
	if serr := s.Store.Close(); serr != nil {
		return serr
	}
	return perr
}
