package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

// Config describes one process's view of the cluster. Every process —
// each lms-db node and every router — is handed the same Peers list, so
// all of them agree on placement without coordination traffic.
type Config struct {
	// Peers lists the HTTP base URLs of every lms-db node in the cluster,
	// self included. The URL doubles as the node id on the ring.
	Peers []string

	// Self is this process's own entry in Peers, or "" for a pure
	// coordinator (the router) that owns no ring slice. A node's requests
	// to itself short-circuit to SelfStore instead of looping through HTTP.
	Self string

	// SelfStore is the local store backing Self; required iff Self != "".
	SelfStore *tsdb.Store

	// Replication is R, the number of replicas owning each (db,
	// measurement). 0 selects DefaultReplication, values above the node
	// count are capped.
	Replication int

	// WriteQuorum is W, the number of replica acknowledgements a write
	// needs before it is acknowledged upstream. 0 selects 1; values above
	// Replication are capped. W < R is what hinted handoff absorbs: the
	// write acks while a replica is down, the missed sub-batch replays on
	// heal.
	WriteQuorum int

	// HintsDir is the root directory of the durable hinted-handoff queues
	// (one WAL per peer underneath). Empty keeps hints in memory only — a
	// coordinator crash then loses them, exactly like a memory-only lms-db
	// loses unflushed points. The hint WALs fsync per batch and each
	// peer's queue is capped at DefaultMaxHintBytes.
	HintsDir string

	// DrainInterval is the base retry delay of the hint drain job; it
	// doubles per consecutive failure up to 16x. 0 selects 250ms.
	DrainInterval time.Duration

	// HTTPClient overrides the pooled package-default client used for all
	// peer traffic (tests shorten its timeout). Nil shares tsdb's default
	// transport, whose MaxConnsPerHost bounds the fan-out socket load.
	HTTPClient *http.Client

	// Logf receives cluster log lines; nil selects the process-wide
	// leveled logger (obs.Warnf) — cluster lines are all degradation
	// reports (stalled drains, dropped hints), warnings by nature.
	Logf func(format string, args ...interface{})
}

// DefaultReplication is R when Config.Replication is zero: two copies of
// every measurement, the smallest value that survives one node down.
const DefaultReplication = 2

const defaultDrainInterval = 250 * time.Millisecond

// node is one ring member as seen from this process.
type node struct {
	id    string
	local *tsdb.Store // non-nil only for self
	hints *hintQueue  // nil for self (a node never hints to itself)

	// Per-peer replicated-write accounting (the /metrics counters).
	batchesOK   atomic.Uint64
	batchesErr  atomic.Uint64
	pointsOK    atomic.Uint64
	pointsErr   atomic.Uint64
	replayed    atomic.Uint64 // hint batches the healed peer accepted
	hintDropped atomic.Uint64 // hints lost to a full/failed queue
}

// Cluster is the clustered view of the database: a ring, one node handle
// per member, the replicated write path (writer.go) and the distributed
// querier (querier.go).
type Cluster struct {
	cfg  Config
	ring *Ring
	// nodes is keyed by ring id; iteration always goes through ring.Nodes()
	// for deterministic order.
	nodes map[string]*node
	self  *node

	httpc *http.Client

	ensureMu sync.Mutex
	ensured  map[string]map[string]bool // db -> node id -> created

	readFailovers  atomic.Uint64
	quorumFailures atomic.Uint64
	// frameBytesPerPoint sizes the next replica frame's buffer (writeNode).
	frameBytesPerPoint atomic.Int64
	fanout             atomic.Pointer[obs.Histogram]

	// Background jobs; Close stops both and waits before it closes the
	// hint queues. drain replays hints every DrainInterval and when a write
	// parks one, backing off (x2 per failed round, up to 16x) while a peer
	// stays down; ensure is the CREATE DATABASE fan-out the write path kicks.
	drain  obs.Job
	ensure obs.Job
}

// New builds the cluster view and recovers any hinted-handoff queues left
// under HintsDir by a previous run; recovered hints start draining
// immediately.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	if cfg.Self != "" && cfg.SelfStore == nil {
		return nil, fmt.Errorf("cluster: Self %q set without SelfStore", cfg.Self)
	}
	ring := NewRing(cfg.Peers, DefaultVirtualNodes)
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.Replication > len(ring.Nodes()) {
		cfg.Replication = len(ring.Nodes())
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = 1
	}
	if cfg.WriteQuorum > cfg.Replication {
		cfg.WriteQuorum = cfg.Replication
	}
	if cfg.DrainInterval <= 0 {
		cfg.DrainInterval = defaultDrainInterval
	}
	c := &Cluster{
		cfg:     cfg,
		ring:    ring,
		nodes:   make(map[string]*node, len(ring.Nodes())),
		httpc:   cfg.HTTPClient,
		ensured: make(map[string]map[string]bool),
	}
	foundSelf := cfg.Self == ""
	for _, id := range ring.Nodes() {
		n := &node{id: id}
		if id == cfg.Self {
			n.local = cfg.SelfStore
			c.self = n
			foundSelf = true
		} else {
			q, err := openHintQueue(cfg.HintsDir, id, durable.Options{Fsync: durable.FsyncPerBatch})
			if err != nil {
				c.closeQueues()
				return nil, err
			}
			n.hints = q
		}
		c.nodes[id] = n
	}
	if !foundSelf {
		c.closeQueues()
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", cfg.Self)
	}
	c.ensure.Every(0, c.ensureAll)
	c.drain.MaxBackoff = 16
	c.drain.Every(cfg.DrainInterval, func(ctx context.Context) error {
		if replayed, err := c.drainPeers(ctx); replayed == 0 {
			return err
		}
		return nil // progress: the peer is back, whatever stalled after it
	})
	return c, nil
}

// Ring exposes the placement ring (tests and the ring-generation gauge).
func (c *Cluster) Ring() *Ring { return c.ring }

// Replication returns the effective R after capping.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// WriteQuorum returns the effective W after capping.
func (c *Cluster) WriteQuorum() int { return c.cfg.WriteQuorum }

func (c *Cluster) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
		return
	}
	obs.Warnf(format, args...)
}

// clientFor returns a write/query client for a peer bound to db. The
// struct is cheap; the connection pool behind it is shared (Config.
// HTTPClient or tsdb's package-level transport), so fan-out to the same
// peer reuses sockets instead of opening one per (db, request). local=1
// marks the request as already coordinated: the peer answers from its own
// store instead of fanning out again (loop prevention).
func (c *Cluster) clientFor(peer, db string) *tsdb.Client {
	return &tsdb.Client{
		BaseURL:    peer,
		Database:   db,
		HTTPClient: c.httpc,
		// The coordinator owns retries: it fails over to the next replica
		// instead of stalling on per-request backoff against a dead peer.
		MaxRetries: -1,
		Params:     map[string][]string{"local": {"1"}},
	}
}

// owners returns the replica set of (db, measurement) in ring order.
func (c *Cluster) owners(db, measurement string) []string {
	return c.ring.Owners(PlacementKey(db, measurement), c.cfg.Replication)
}

// pendingHints returns the queued hint batches for a peer; self and
// unknown ids report zero.
func (c *Cluster) pendingHints(id string) int {
	n := c.nodes[id]
	if n == nil || n.hints == nil {
		return 0
	}
	d, _ := n.hints.depth()
	return d
}

// ---------------------------------------------------------------------------
// Database fan-out (CREATE DATABASE on every node).
//
// Writes autocreate the database on the owning replicas, but a SELECT for
// a measurement nobody ever wrote can land on a node that never saw the
// database at all and would answer "database does not exist" where a
// single-node store answers with an empty result. ensureDatabase
// eagerly creates the database on every member the first time the write
// path sees it, keeping the ghost-measurement behavior of the cluster
// byte-identical to a single node once the fan-out completes.

// ensureDatabase asynchronously creates db on every cluster member that
// has not confirmed it yet. It returns immediately; Ensure is the
// synchronous form.
func (c *Cluster) ensureDatabase(db string) {
	if len(c.unensured(db)) > 0 {
		c.ensure.Kick()
	}
}

// ensureAll is one run of the ensure job: every database the write path
// has seen, on every member still missing it, 10 s for the lot (what a dead
// member costs; the next write kicks again).
func (c *Cluster) ensureAll(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	c.ensureMu.Lock()
	dbs := slices.Collect(maps.Keys(c.ensured))
	c.ensureMu.Unlock()
	var err error
	for _, db := range dbs {
		err = errors.Join(err, c.Ensure(ctx, db))
	}
	return err
}

func (c *Cluster) unensured(db string) []string {
	c.ensureMu.Lock()
	defer c.ensureMu.Unlock()
	state := c.ensured[db]
	if state == nil {
		state = make(map[string]bool, len(c.nodes))
		c.ensured[db] = state
	}
	var missing []string
	for _, id := range c.ring.Nodes() {
		if !state[id] {
			missing = append(missing, id)
		}
	}
	return missing
}

// Ensure synchronously creates db on every member that has not confirmed
// it yet, returning the first failure. The write path runs it in the
// background (ensureDatabase); tests and provisioning tools call it
// directly.
func (c *Cluster) Ensure(ctx context.Context, db string) error {
	var firstErr error
	for _, id := range c.unensured(db) {
		n := c.nodes[id]
		var err error
		if n.local != nil {
			_, err = n.local.OpenDatabase(db)
		} else {
			st := tsdb.Statement{Kind: tsdb.StmtCreateDatabase, Target: db}
			var resp tsdb.Response
			resp, err = c.clientFor(id, "").Query(ctx, tsdb.Request{Statements: []tsdb.Statement{st}})
			if err == nil {
				err = resp.Err()
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: ensure %q on %s: %w", db, id, err)
			}
			continue
		}
		c.ensureMu.Lock()
		c.ensured[db][id] = true
		c.ensureMu.Unlock()
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Hint drain.

// drainPeers is the one drain routine: one round over every peer with
// pending hints, replaying each queue until it empties or its peer fails
// again. It returns the batches replayed and the first per-peer failure.
// The drain job and DrainHints may run it at once; each queue serializes
// its own drain (hintQueue.drain).
func (c *Cluster) drainPeers(ctx context.Context) (replayed int, firstErr error) {
	for _, id := range c.ring.Nodes() {
		if err := ctx.Err(); err != nil {
			return replayed, err
		}
		n := c.nodes[id]
		if n.hints == nil {
			continue
		}
		if d, _ := n.hints.depth(); d == 0 {
			continue
		}
		got, err := n.hints.drain(func(db string, frame []byte) error {
			return c.clientFor(id, db).WriteFrameContext(ctx, frame)
		})
		n.replayed.Add(uint64(got))
		replayed += got
		if err != nil {
			c.logf("cluster: hint drain to %s stalled after %d batches: %v", id, got, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: drain to %s: %w", id, err)
			}
		} else if got > 0 {
			c.logf("cluster: hint queue for %s drained (%d batches replayed)", id, got)
		}
	}
	return replayed, firstErr
}

// DrainHints synchronously replays every pending hint, returning the
// first per-peer failure (nil when all queues emptied). Tests and
// graceful shutdown use it; production relies on the drain job.
func (c *Cluster) DrainHints(ctx context.Context) error {
	_, err := c.drainPeers(ctx)
	return err
}

// PendingHints sums the queued hint batches across all peers.
func (c *Cluster) PendingHints() int {
	total := 0
	for _, n := range c.nodes {
		if n.hints != nil {
			d, _ := n.hints.depth()
			total += d
		}
	}
	return total
}

func (c *Cluster) closeQueues() {
	for _, n := range c.nodes {
		if n.hints != nil {
			_ = n.hints.close()
		}
	}
}

// Close stops the background jobs, waits for a drain or fan-out in flight
// (its peer requests are cancelled) and closes the hint WALs. Pending hints
// stay on disk and are recovered by the next New with the same HintsDir.
func (c *Cluster) Close() error {
	c.drain.Stop()
	c.ensure.Stop()
	c.closeQueues()
	return nil
}

// ---------------------------------------------------------------------------
// Observability (DESIGN.md §10): the cluster registers its series into the
// process's existing registry — the store's on lms-db, the router's on the
// router — so one /metrics scrape covers the whole path.

// RegisterMetrics adds the cluster series to reg. Call once, before
// serving.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	c.drain.Export(reg.NewJob("hint_drain"))
	c.fanout.Store(reg.NewHistogram("lms_cluster_fanout_seconds",
		"Scatter-gather fan-out latency of distributed queries.", nil))
	reg.NewFunc("lms_cluster_ring_generation",
		"Digest of the cluster membership; equal values imply identical placement.",
		"gauge", func(emit func(string, float64)) {
			emit("", float64(c.ring.Generation()%(1<<53)))
		})
	reg.NewFunc("lms_cluster_nodes", "Cluster member count.", "gauge",
		func(emit func(string, float64)) {
			emit("", float64(len(c.ring.Nodes())))
		})
	reg.NewFunc("lms_cluster_replicated_batches_total",
		"Replicated write batches per peer and outcome.", "counter",
		func(emit func(string, float64)) {
			for _, id := range c.ring.Nodes() {
				n := c.nodes[id]
				emit(obs.L("peer", id, "status", "ok"), float64(n.batchesOK.Load()))
				emit(obs.L("peer", id, "status", "error"), float64(n.batchesErr.Load()))
			}
		})
	reg.NewFunc("lms_cluster_replicated_points_total",
		"Replicated write points per peer and outcome.", "counter",
		func(emit func(string, float64)) {
			for _, id := range c.ring.Nodes() {
				n := c.nodes[id]
				emit(obs.L("peer", id, "status", "ok"), float64(n.pointsOK.Load()))
				emit(obs.L("peer", id, "status", "error"), float64(n.pointsErr.Load()))
			}
		})
	reg.NewFunc("lms_cluster_hint_queue_depth",
		"Hinted-handoff batches queued per peer.", "gauge",
		func(emit func(string, float64)) {
			for _, id := range c.ring.Nodes() {
				if n := c.nodes[id]; n.hints != nil {
					d, _ := n.hints.depth()
					emit(obs.L("peer", id), float64(d))
				}
			}
		})
	reg.NewFunc("lms_cluster_hint_queue_bytes",
		"Hinted-handoff bytes queued per peer.", "gauge",
		func(emit func(string, float64)) {
			for _, id := range c.ring.Nodes() {
				if n := c.nodes[id]; n.hints != nil {
					_, b := n.hints.depth()
					emit(obs.L("peer", id), float64(b))
				}
			}
		})
	reg.NewFunc("lms_cluster_hints_replayed_total",
		"Hint batches replayed to healed peers.", "counter",
		func(emit func(string, float64)) {
			for _, id := range c.ring.Nodes() {
				if n := c.nodes[id]; n.hints != nil {
					emit(obs.L("peer", id), float64(n.replayed.Load()))
				}
			}
		})
	reg.NewFunc("lms_cluster_hints_dropped_total",
		"Hints lost to a full or failed queue.", "counter",
		func(emit func(string, float64)) {
			for _, id := range c.ring.Nodes() {
				if n := c.nodes[id]; n.hints != nil {
					emit(obs.L("peer", id), float64(n.hintDropped.Load()))
				}
			}
		})
	reg.NewFunc("lms_cluster_quorum_failures_total",
		"Write batches failed below write quorum.", "counter",
		func(emit func(string, float64)) {
			emit("", float64(c.quorumFailures.Load()))
		})
	reg.NewFunc("lms_cluster_read_failovers_total",
		"Statements retried on another replica after a replica failure.", "counter",
		func(emit func(string, float64)) {
			emit("", float64(c.readFailovers.Load()))
		})
}

// observeFanout records one scatter-gather round-trip, when metrics are
// registered.
func (c *Cluster) observeFanout(d time.Duration) {
	if h := c.fanout.Load(); h != nil {
		h.Observe(d.Seconds())
	}
}

// readOrder orders a replica set for a read: healthy replicas first (a
// peer with queued hints is known to be missing acknowledged writes —
// route around it until handoff drains), self-preferred within each class
// (no HTTP hop), ring order otherwise. The slice is freshly allocated.
func (c *Cluster) readOrder(owners []string) []string {
	out := append([]string(nil), owners...)
	sort.SliceStable(out, func(a, b int) bool {
		ha, hb := c.pendingHints(out[a]) > 0, c.pendingHints(out[b]) > 0
		if ha != hb {
			return !ha
		}
		sa, sb := out[a] == c.cfg.Self, out[b] == c.cfg.Self
		return sa && !sb
	})
	return out
}
