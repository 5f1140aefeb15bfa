package cluster

// Hinted handoff (DESIGN.md §12). When a replica misses a write that was
// acknowledged at quorum, the coordinator parks the replica's share of the
// batch in a per-peer hint queue and replays it when the peer heals. The
// queue rides the durable WAL (internal/tsdb/durable): each hint is one
// CRC32-framed record holding the target database name and the batch in
// the WAL's own point-batch codec — the very frame the coordinator put on
// the wire — so a coordinator restart recovers every outstanding hint
// exactly like lms-db recovers unacknowledged writes.
// Replay is at-least-once; the store's last-write-wins upsert on
// (series, timestamp) makes duplicate delivery convergent.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sync"

	"repro/internal/tsdb/durable"
)

// hint is one parked share: the batch frame (durable.AppendBatch) a single
// peer missed, bound to its target database. The queue never looks inside
// the frame — what the coordinator encoded for the wire is what it logs,
// holds and replays.
type hint struct {
	db    string
	frame []byte
	bytes int64 // record size, for the queue cap and byte gauge
}

// encodeHint frames one hint as a WAL record payload: uvarint-length
// database name followed by the batch frame.
func encodeHint(db string, frame []byte) []byte {
	dst := make([]byte, 0, binary.MaxVarintLen32+len(db)+len(frame))
	dst = binary.AppendUvarint(dst, uint64(len(db)))
	dst = append(dst, db...)
	return append(dst, frame...)
}

// decodeHint reads one record back at recovery. The frame is checked with
// the check the peer's frame door will run on it (durable.CheckBatch:
// structure and point validity) — a queue that would only ever draw 400s
// from its peer must fail the open, not stall the drain — and copied,
// because payload aliases the segment being replayed.
func decodeHint(payload []byte) (hint, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || uint64(len(payload)-sz) < n {
		return hint{}, errors.New("cluster: truncated hint payload")
	}
	db := string(payload[sz : sz+int(n)])
	frame := payload[sz+int(n):]
	if _, err := durable.CheckBatch(frame); err != nil {
		return hint{}, err
	}
	return hint{db: db, frame: append([]byte(nil), frame...), bytes: int64(len(payload))}, nil
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

// enqueue parks one missed share and takes ownership of frame. The hint is
// durable before enqueue returns (subject to the queue's fsync policy); a
// full queue or a sealed log rejects the hint with an error — the caller
// counts the drop, the write itself was already decided by quorum. So does
// a frame the peer's door would refuse (durable.CheckBatch): parked, it
// would stall every hint behind it.
func (q *hintQueue) enqueue(db string, frame []byte) error {
	if _, err := durable.CheckBatch(frame); err != nil {
		return fmt.Errorf("cluster: hint for %s: %w", q.peer, err)
	}
	payload := encodeHint(db, frame)
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
	q.pending = append(q.pending, hint{db: db, frame: frame, bytes: int64(len(payload))})
	q.bytes += int64(len(payload))
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
func (q *hintQueue) drain(send func(db string, frame []byte) error) (replayed int, err error) {
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

		if err := send(h.db, h.frame); err != nil {
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
