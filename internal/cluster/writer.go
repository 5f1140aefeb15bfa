package cluster

// The replicated write path (DESIGN.md §12). One incoming batch is split
// by the ring into per-node sub-batches (a point goes to all R owners of
// its measurement), the sub-batches fan out concurrently, and the batch
// acknowledges once every owner group reached write-quorum W. A replica
// that failed an acknowledged write gets its sub-batch parked in the
// durable hint queue and replayed on heal, so R-W down replicas cost no
// availability and no acknowledged data.
//
// A remote replica's share crosses the wire as one durable batch frame
// (durable.AppendBatch, tsdb.BatchContentType): encoded once here, logged
// verbatim by the replica's WAL, and — when the replica is down — parked
// verbatim as the hint. One codec rides all three.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

// dbSink binds the cluster write path to one database. It implements
// router.Sink, so the router's per-destination batching (one flush per
// database per ingest round) feeds the ring exactly like it fed a single
// lms-db.
type dbSink struct {
	c  *Cluster
	db string
}

// SinkFor returns the replicated write sink of one database. The router
// plugs these in as Primary and per-user sinks; each WritePoints call is
// one replicated batch.
func (c *Cluster) SinkFor(db string) router.Sink {
	return dbSink{c: c, db: db}
}

// WritePoints implements router.Sink.
func (s dbSink) WritePoints(pts []lineproto.Point) error {
	return s.c.writeDB(context.Background(), s.db, pts)
}

// WritePointsContext is the traced form: a trace riding the context gets
// per-owner fan-out spans, and the trace id crosses to each replica via
// X-Lms-Trace. The router's ingest path prefers this interface.
func (s dbSink) WritePointsContext(ctx context.Context, pts []lineproto.Point) error {
	return s.c.writeDB(ctx, s.db, pts)
}

// writeDB replicates one batch into db. It returns nil iff every owner
// group in the batch reached write quorum; on a quorum failure the caller
// (the router) counts the batch dropped and the upstream client retries —
// replay is safe because same-timestamp rewrites are last-write-wins
// upserts.
func (c *Cluster) writeDB(ctx context.Context, db string, pts []lineproto.Point) error {
	if len(pts) == 0 {
		return nil
	}
	tr := obs.TraceFrom(ctx)
	wsp := tr.Start("cluster.write").Attr("db", db).AttrInt("points", int64(len(pts)))
	defer wsp.End()
	c.ensureDatabase(db)

	// Zero timestamps are resolved here, once, by the coordinator: if each
	// replica stamped its own arrival time the copies would diverge and a
	// read failover would change answers. Same rule as the WAL codec — the
	// batch that replicates is the batch that acknowledged.
	now := time.Now().UTC()
	stamped := pts
	for i := range pts {
		if pts[i].Time.IsZero() {
			stamped = make([]lineproto.Point, len(pts))
			copy(stamped, pts)
			for j := range stamped {
				if stamped[j].Time.IsZero() {
					stamped[j].Time = now
				}
			}
			break
		}
	}

	// Split the batch: per-node shares (input order preserved) and
	// per-owner-group point counts for the quorum decision. Batches are
	// usually dominated by a handful of measurements, so the ring lookup and
	// the group key are computed once per measurement, not per point.
	type group struct {
		owners []string
		points int
	}
	perNode := make(map[string]*share, c.cfg.Replication)
	groups := make(map[string]*group)  // by owner set
	groupOf := make(map[string]*group) // by measurement
	evenShare := len(stamped)*c.cfg.Replication/len(c.nodes) + 1
	for i := range stamped {
		m := stamped[i].Measurement
		g := groupOf[m]
		if g == nil {
			owners := c.owners(db, m)
			gk := strings.Join(owners, "\x00")
			if g = groups[gk]; g == nil {
				g = &group{owners: owners}
				groups[gk] = g
			}
			groupOf[m] = g
		}
		g.points++
		for _, id := range g.owners {
			sh := perNode[id]
			if sh == nil {
				sh = &share{pts: make([]lineproto.Point, 0, evenShare)}
				perNode[id] = sh
			}
			sh.pts = append(sh.pts, stamped[i])
		}
	}

	// Fan out concurrently; the transport underneath is shared and
	// connection-capped, so a wide ring cannot exhaust sockets. Each
	// goroutine writes only its own share.
	var wg sync.WaitGroup
	for id, sh := range perNode {
		wg.Add(1)
		go func(id string, sh *share) {
			defer wg.Done()
			sp := tr.Start("cluster.write.node").Attr("peer", id).AttrInt("points", int64(len(sh.pts)))
			sh.err = c.writeNode(ctx, id, db, sh, now.UnixNano())
			if sh.err != nil {
				sp.Attr("error", sh.err.Error())
			}
			sp.End()
		}(id, sh)
	}
	wg.Wait()

	// Quorum per owner group: every point's replica set must have at least
	// W successful writes, else the whole batch reports failure upstream.
	var quorumErr error
	for _, g := range groups {
		acked := 0
		var lastErr error
		for _, id := range g.owners {
			if err := perNode[id].err; err == nil {
				acked++
			} else {
				lastErr = err
			}
		}
		if acked < c.cfg.WriteQuorum {
			c.quorumFailures.Add(1)
			quorumErr = fmt.Errorf("cluster: %d/%d replicas acked %d points (want %d): %w",
				acked, len(g.owners), g.points, c.cfg.WriteQuorum, lastErr)
		}
	}
	if quorumErr != nil {
		return quorumErr
	}

	// The batch is acknowledged. Park the failed replicas' frames as hints;
	// a hint that cannot be parked (full queue, sealed WAL) is counted as
	// dropped but does not un-acknowledge the write — quorum already holds
	// the data.
	for id, sh := range perNode {
		n := c.nodes[id]
		if sh.err == nil || n.hints == nil {
			continue
		}
		hsp := tr.Start("cluster.hint.enqueue").Attr("peer", id).AttrInt("points", int64(len(sh.pts)))
		if herr := n.hints.enqueue(db, sh.frame); herr != nil {
			hsp.Attr("error", herr.Error())
			n.hintDropped.Add(1)
			c.logf("cluster: dropping hint for %s (%d points): %v", id, len(sh.pts), herr)
		} else {
			c.drain.Kick()
		}
		hsp.End()
	}
	return nil
}

// share is one node's part of a replicated batch.
type share struct {
	pts []lineproto.Point
	// frame is pts in the durable batch codec, set for remote nodes only:
	// the bytes that went on the wire, and the hint if they did not arrive.
	frame []byte
	err   error
}

// writeNode delivers one share to a single replica, keeping the per-peer
// counters. A remote share is encoded here, once; nowNS only backstops the
// codec's zero-time rule — writeDB has already stamped every point.
func (c *Cluster) writeNode(ctx context.Context, id, db string, sh *share, nowNS int64) error {
	n := c.nodes[id]
	var err error
	if n.local != nil {
		var ldb *tsdb.DB
		ldb, err = n.local.OpenDatabase(db)
		if err == nil {
			err = ldb.WriteBatchContext(ctx, sh.pts)
		}
	} else {
		// A fresh buffer per share (a failed one lives on as the hint), sized
		// by what the last frame needed per point.
		sh.frame = durable.AppendBatch(make([]byte, 0, len(sh.pts)*int(c.frameBytesPerPoint.Load())), sh.pts, nowNS)
		c.frameBytesPerPoint.Store(int64(len(sh.frame)/len(sh.pts)) + 16)
		err = c.clientFor(id, db).WriteFrameContext(ctx, sh.frame)
	}
	if err != nil {
		n.batchesErr.Add(1)
		n.pointsErr.Add(uint64(len(sh.pts)))
		return err
	}
	n.batchesOK.Add(1)
	n.pointsOK.Add(uint64(len(sh.pts)))
	return nil
}
