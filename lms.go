// Package lms is the public facade of the LIKWID Monitoring Stack (LMS)
// reproduction: a job-specific performance monitoring framework for small
// to medium sized commodity clusters, after
//
//	T. Röhl, J. Eitzinger, G. Hager, G. Wellein:
//	"LIKWID Monitoring Stack: A flexible framework enabling job specific
//	performance monitoring for the masses", IEEE CLUSTER 2017
//	(arXiv:1708.01476).
//
// The stack consists of loosely coupled components (paper Fig. 1), each of
// which also works standalone:
//
//   - a time-series database with an InfluxDB-compatible HTTP API
//     (internal/tsdb),
//   - the metrics router with the hostname-keyed tag store, job start/end
//     signals, per-user duplication and a ZeroMQ-style publisher
//     (internal/router, internal/pubsub),
//   - host agents collecting system metrics and LIKWID hardware performance
//     metrics (internal/collector, internal/proc, internal/hpm),
//   - the libusermetric application-level annotation library
//     (internal/usermetric),
//   - the Ganglia gmond pulling proxy (internal/gmond),
//   - the dashboard agent generating Grafana-model dashboards from
//     templates plus a web viewer (internal/dashboard),
//   - the analysis layer: threshold/timeout rules for pathological jobs and
//     the performance-pattern decision tree (internal/analysis),
//   - a batch scheduler and synthetic workload models that stand in for a
//     production cluster (internal/jobsched, internal/workload),
//
// wired together by internal/core. This package re-exports the composition
// entry points; see the examples/ directory for runnable scenarios and
// DESIGN.md for the substitution map (real hardware -> simulation).
//
// # Ingest scaling
//
// The write path is batch-oriented end to end. Every tsdb database is
// partitioned into measurement-hashed shards with per-shard locks
// (default: GOMAXPROCS shards; see tsdb.StoreOptions.ShardsPerDB and
// StackConfig.TSDBShards), so concurrent agents writing different
// measurements never serialize behind a single database mutex. Producers
// accumulate points into line-protocol batches (lineproto.Batch), the
// router enriches a batch and flushes it per destination database in one
// write, and tsdb.DB.WriteBatchContext commits each batch with one lock
// acquisition per touched shard. README.md describes the sharded store and
// the shard-count knob in more detail.
//
// # Query scaling
//
// The read path is lock-light and parallel (DESIGN.md §6).
// tsdb.DB.SelectContext runs in two phases: a snapshot phase that holds the
// shard read lock only while collecting slice headers of the matching
// sorted, immutable point runs (with the time range and raw-query row
// limits pushed down into the snapshot), and an aggregation phase that
// buckets, groups and aggregates entirely outside any lock, fanning result
// groups out over a bounded worker pool (tsdb.StoreOptions.QueryWorkersPerDB,
// StackConfig.QueryWorkers). Per-run partial aggregates merge in a fixed
// order, so parallel results are byte-identical to the serial engine. A
// TTL'd query-result cache, invalidated per measurement on write, absorbs
// the dashboard viewer's repeated panel refreshes. README.md's "Query
// path" section and DESIGN.md §6 describe the design; EXPERIMENTS.md
// records the measured gains.
//
// # Query API and deployment topologies
//
// Every read-side consumer — the dashboard viewer, the analysis
// evaluator, the lms-dashboard and lms-analyze binaries — depends only on
// tsdb.Querier (DESIGN.md §7): tsdb.LocalQuerier executes pre-parsed
// statements directly against the in-process store, and tsdb.Client
// implements the same contract over the InfluxDB-compatible HTTP API with
// pooled transport, timeouts and retry/backoff. Substituting one for the
// other changes the deployment topology (everything in one process vs the
// paper's separate database, dashboard and analysis services on separate
// hosts via -db-url) but never the results: the equivalence suite holds
// both to byte-identical JSON. Contexts flow from the HTTP handlers
// through DB.SelectContext into the aggregation worker pool, so
// disconnected clients cancel their queries.
//
// # Durability
//
// The paper's stack persists metrics in InfluxDB so monitoring survives
// daemon restarts; a stack built with StackConfig.DataDir (or an lms-db
// started with -data-dir) does the same with the engine of DESIGN.md §9:
// every batch lands in a segmented, CRC32-framed write-ahead log before
// it is acknowledged (fsync policy per StackConfig.FsyncPolicy),
// checkpoints serialize the sealed columnar runs into immutable on-disk
// blocks, and startup recovers the newest checkpoint plus the WAL tail,
// truncating torn final records so exactly the acknowledged prefix comes
// back. Stack.Close (or SIGTERM to lms-db) flushes the log and writes a
// final checkpoint; retention deletes expired on-disk segments and
// blocks, with a per-DB background sweep aging out idle databases.
package lms

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/jobsched"
	"repro/internal/workload"
)

// Stack is an assembled LMS instance (database, router, publisher,
// dashboard agent, viewer, evaluator).
type Stack = core.Stack

// StackConfig configures NewStack.
type StackConfig = core.StackConfig

// NewStack builds a full monitoring stack.
func NewStack(cfg StackConfig) (*Stack, error) { return core.NewStack(cfg) }

// Simulation drives a simulated cluster against a stack.
type Simulation = core.Simulation

// SimConfig describes the simulated cluster.
type SimConfig = core.SimConfig

// NewSimulatedStack builds a stack plus a simulation sharing one clock.
func NewSimulatedStack(scfg StackConfig, simCfg SimConfig) (*Stack, *Simulation, error) {
	return core.NewSimulatedStack(scfg, simCfg)
}

// SimTime converts simulated seconds into stored timestamps.
var SimTime = core.SimTime

// JobRequest describes a batch job submission.
type JobRequest = jobsched.JobRequest

// JobMeta identifies a job for analysis and dashboards.
type JobMeta = analysis.JobMeta

// Workload models (see internal/workload for the full set).
type (
	// WorkloadModel is the per-node behaviour of a job.
	WorkloadModel = workload.Model
	// MiniMD is the Mantevo miniMD proxy application model (paper Fig. 3).
	MiniMD = workload.MiniMD
	// Triad is a bandwidth-bound streaming kernel.
	Triad = workload.Triad
	// DGEMM is a compute-bound kernel.
	DGEMM = workload.DGEMM
	// IdleBreak reproduces the Fig. 4 pathological job.
	IdleBreak = workload.IdleBreak
	// LoadImbalance reproduces the strong-scaling pathology.
	LoadImbalance = workload.LoadImbalance
)

// NewMiniMD constructs a miniMD run (cores per node, atoms, iterations).
var NewMiniMD = workload.NewMiniMD

// NewTriad constructs a streaming workload (cores per node, runtime).
var NewTriad = workload.NewTriad

// NewDGEMM constructs a compute workload (cores per node, runtime).
var NewDGEMM = workload.NewDGEMM

// NewIdleBreak constructs the Fig. 4 workload (cores, runtime, break
// start, break end in job seconds).
var NewIdleBreak = workload.NewIdleBreak
