package lineproto

import (
	"sync"
	"time"
)

// Batch accumulates points and renders them as a single concatenated
// line-protocol payload. It is the building block for the batched
// transmission mode used by libusermetric and the collector agent: callers
// add points as they are produced and flush them in one HTTP request.
//
// A Batch is safe for concurrent use.
type Batch struct {
	mu     sync.Mutex
	buf    []byte
	n      int
	defTag map[string]string
}

// NewBatch returns an empty batch. defaultTags (may be nil) are merged into
// every added point; explicit point tags win on key collision.
func NewBatch(defaultTags map[string]string) *Batch {
	b := &Batch{}
	if len(defaultTags) > 0 {
		b.defTag = make(map[string]string, len(defaultTags))
		for k, v := range defaultTags {
			b.defTag[k] = v
		}
	}
	return b
}

// Add validates and appends one point. If the point has no timestamp, now is
// assigned so the batch is self-contained when it reaches the database.
func (b *Batch) Add(p Point, now time.Time) error {
	if p.Time.IsZero() {
		p.Time = now
	}
	if len(b.defTag) > 0 {
		if len(p.Tags) == 0 {
			// Hot path for clients that rely on default tags only
			// (usermetric.Metric with nil tags): encoding below never
			// mutates the map, so the defaults can be aliased instead of
			// copied per point.
			p.Tags = b.defTag
		} else {
			merged := make(map[string]string, len(b.defTag)+len(p.Tags))
			for k, v := range b.defTag {
				merged[k] = v
			}
			for k, v := range p.Tags {
				merged[k] = v
			}
			p.Tags = merged
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, err := AppendPoint(b.buf, p)
	if err != nil {
		return err
	}
	b.buf = append(buf, '\n')
	b.n++
	return nil
}

// Len reports the number of buffered points.
func (b *Batch) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Flush returns the accumulated payload and resets the batch. It returns nil
// when the batch is empty.
func (b *Batch) Flush() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return nil
	}
	out := b.buf
	b.buf = nil
	b.n = 0
	return out
}
