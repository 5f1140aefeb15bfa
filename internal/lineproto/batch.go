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
	defTag []Tag
	tags   []Tag // scratch: the point being added, merged with defTag
}

// NewBatch returns an empty batch. defaultTags (may be nil) are merged into
// every added point; explicit point tags win on key collision.
func NewBatch(defaultTags map[string]string) *Batch {
	return &Batch{defTag: TagsFrom(defaultTags)}
}

// Add validates and appends one point. If the point has no timestamp, now is
// assigned so the batch is self-contained when it reaches the database.
func (b *Batch) Add(p Point, now time.Time) error {
	if p.Time.IsZero() {
		p.Time = now
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.defTag) > 0 {
		b.tags = MergeTags(b.tags[:0], p.Tags, b.defTag)
		p.Tags = b.tags
	}
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
