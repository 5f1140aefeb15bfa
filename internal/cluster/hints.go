package cluster

// Hinted handoff (DESIGN.md §12). When a replica misses a write that was
// acknowledged at quorum, the coordinator parks the replica's share of the
// batch in a per-peer hint queue and replays it when the peer heals. The
// queue rides the durable WAL (internal/tsdb/durable): each hint is one
// CRC32-framed record holding the target database name and the batch in
// the WAL's own point-batch codec, so a coordinator restart recovers every
// outstanding hint exactly like lms-db recovers unacknowledged writes.
// Replay is at-least-once; the store's last-write-wins upsert on
// (series, timestamp) makes duplicate delivery convergent.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sync"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// hint is one parked sub-batch: the points a single peer missed, bound to
// their target database.
type hint struct {
	db    string
	pts   []lineproto.Point
	bytes int64 // encoded size, for the queue cap and byte gauge
}

// encodeHint frames one hint as a WAL record payload: uvarint-length
// database name followed by the durable point-batch encoding. nowNS
// resolves zero timestamps exactly like the ingest WAL does, so a replayed
// point is the point the acknowledged replicas stored.
func encodeHint(db string, pts []lineproto.Point, nowNS int64) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(db)))
	dst = append(dst, db...)
	return durable.AppendBatch(dst, pts, nowNS)
}

func decodeHint(payload []byte) (hint, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || uint64(len(payload)-sz) < n {
		return hint{}, errors.New("cluster: truncated hint payload")
	}
	db := string(payload[sz : sz+int(n)])
	pts, err := durable.DecodeBatch(payload[sz+int(n):])
	if err != nil {
		return hint{}, err
	}
	return hint{db: db, pts: pts, bytes: int64(len(payload))}, nil
}

// DefaultMaxHintBytes caps one peer's hint queue; past it new hints are
// dropped (and counted) rather than filling the coordinator's disk while a
// peer stays dead for days.
const DefaultMaxHintBytes int64 = 256 << 20

// hintQueue is the durable handoff queue of one peer.
type hintQueue struct {
	peer string
	dir  string // "" = memory-only (no HintsDir configured)

	// drainMu serializes drain: the hint a drain pops after a successful
	// send must be the hint it sent. mu is released while sending, so
	// enqueue and depth never wait on a slow or dead peer.
	drainMu sync.Mutex

	mu      sync.Mutex
	wal     *durable.WAL // nil when memory-only or the log sealed
	pending []hint
	bytes   int64
}

// openHintQueue opens (or creates) the queue for peer under root,
// recovering pending hints from a previous run through the WAL replay
// callback. root == "" builds a memory-only queue.
func openHintQueue(root, peer string, opts durable.Options) (*hintQueue, error) {
	q := &hintQueue{peer: peer}
	if root == "" {
		return q, nil
	}
	q.dir = filepath.Join(root, url.PathEscape(peer))
	w, err := durable.OpenWAL(q.dir, 0, opts, func(payload []byte) error {
		h, err := decodeHint(payload)
		if err != nil {
			return err
		}
		q.pending = append(q.pending, h)
		q.bytes += h.bytes
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: open hint queue for %s: %w", peer, err)
	}
	q.wal = w
	return q, nil
}

// enqueue parks one missed sub-batch. The hint is durable before enqueue
// returns (subject to the queue's fsync policy); a full queue or a sealed
// log rejects the hint with an error — the caller counts the drop, the
// write itself was already decided by quorum.
func (q *hintQueue) enqueue(db string, pts []lineproto.Point, nowNS int64) error {
	payload := encodeHint(db, pts, nowNS)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.bytes+int64(len(payload)) > DefaultMaxHintBytes {
		return fmt.Errorf("cluster: hint queue for %s full (%d bytes)", q.peer, q.bytes)
	}
	if q.wal != nil {
		if _, _, err := q.wal.Append(payload); err != nil {
			return fmt.Errorf("cluster: hint append for %s: %w", q.peer, err)
		}
	}
	h, err := decodeHint(payload)
	if err != nil {
		// Cannot happen for a payload we just encoded; decoding (rather than
		// keeping the caller's slice) makes the in-memory queue independent
		// of buffers the router reuses.
		return err
	}
	q.pending = append(q.pending, h)
	q.bytes += h.bytes
	return nil
}

// depth returns the queued batch count and byte size (the /metrics gauges).
func (q *hintQueue) depth() (batches int, bytes int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending), q.bytes
}

// drain replays pending hints in arrival order through send, stopping at
// the first failure (the peer is still unhealthy — back off and retry).
// replayed reports how many batches the peer accepted. When the queue
// empties, the WAL is rotated and its drained segments removed, so disk
// usage returns to zero after a heal. A crash mid-drain re-replays the
// already-delivered prefix on restart; delivery is at-least-once and the
// store's upsert makes it convergent. Concurrent drains of one queue run
// one after the other.
func (q *hintQueue) drain(send func(db string, pts []lineproto.Point) error) (replayed int, err error) {
	q.drainMu.Lock()
	defer q.drainMu.Unlock()
	for {
		q.mu.Lock()
		if len(q.pending) == 0 {
			if q.wal != nil {
				if seg, rerr := q.wal.Rotate(); rerr == nil {
					_ = q.wal.RemoveBelow(seg)
				}
			}
			q.mu.Unlock()
			return replayed, nil
		}
		h := q.pending[0]
		q.mu.Unlock()

		if err := send(h.db, h.pts); err != nil {
			return replayed, err
		}
		replayed++
		q.mu.Lock()
		q.pending = q.pending[1:]
		q.bytes -= h.bytes
		q.mu.Unlock()
	}
}

func (q *hintQueue) close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.wal == nil {
		return nil
	}
	err := q.wal.Close()
	q.wal = nil
	return err
}
