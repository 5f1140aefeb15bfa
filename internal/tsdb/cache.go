package tsdb

// A small TTL'd query-result cache in front of DB.SelectContext, sized for the
// dashboard viewer's repeated panel refreshes: the same handful of
// normalized queries re-executed every few hundred milliseconds. Entries
// are keyed on the normalized Query and carry the invalidation generations
// captured *before* the snapshot was taken: every write bumps the
// generation of each touched measurement and every retention sweep or
// DropBefore bumps the global generation, so a hit is only served while
// the underlying data is provably unchanged. Cached []Series values are
// shared between callers and must be treated as read-only.

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultQueryCacheTTL bounds how long an untouched result may be
	// served. Generation checks already catch every mutation through the
	// DB's own API; the TTL is a safety net that also bounds staleness for
	// clock-sensitive callers.
	DefaultQueryCacheTTL = time.Second
	// maxQueryCacheEntries caps the cache footprint.
	maxQueryCacheEntries = 256
)

type cacheEntry struct {
	res     []Series
	mgen    uint64
	ggen    uint64
	expires int64 // unix ns
}

type queryCache struct {
	ttl     atomic.Int64
	hits    atomic.Uint64
	misses  atomic.Uint64
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

func (c *queryCache) init() {
	c.entries = make(map[string]*cacheEntry)
	c.ttl.Store(int64(DefaultQueryCacheTTL))
}

// SetQueryCacheTTL configures how long Select results may be served from
// the cache. d <= 0 disables caching entirely.
func (db *DB) SetQueryCacheTTL(d time.Duration) {
	db.qcache.ttl.Store(int64(d))
}

// QueryCacheStats returns the number of Select calls served from the cache
// and the number that executed the engine (lookups while the cache is
// disabled count as neither).
func (db *DB) QueryCacheStats() (hits, misses uint64) {
	return db.qcache.hits.Load(), db.qcache.misses.Load()
}

// measGen returns the invalidation generation counter of one measurement,
// creating it on first use. Only the write side calls this: counters exist
// solely for measurements that were actually written, so query traffic
// with arbitrary (or nonexistent) measurement names cannot grow the map.
func (db *DB) measGen(measurement string) *atomic.Uint64 {
	if v, ok := db.measGens.Load(measurement); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := db.measGens.LoadOrStore(measurement, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// cacheGens snapshots the generations a Select result will be valid for.
// A measurement that was never written reads as generation 0; its first
// write creates the counter at 1, invalidating anything cached under 0.
func (db *DB) cacheGens(measurement string) (mgen, ggen uint64) {
	if v, ok := db.measGens.Load(measurement); ok {
		mgen = v.(*atomic.Uint64).Load()
	}
	return mgen, db.globalGen.Load()
}

// cacheRef carries the normalized key and pre-snapshot generations from a
// failed lookup to the store after the engine ran, so the miss path builds
// them exactly once.
type cacheRef struct {
	key        string
	mgen, ggen uint64
	enabled    bool
}

// lookup serves a query from the cache if possible; on a miss it returns
// the ref to store the computed result under. The generations are captured
// here, *before* the caller snapshots, so a write racing with the snapshot
// leaves the stored entry stale-marked.
func (c *queryCache) lookup(db *DB, q Query) ([]Series, cacheRef, bool) {
	if c.ttl.Load() <= 0 {
		return nil, cacheRef{}, false
	}
	ref := cacheRef{key: normKey(q), enabled: true}
	ref.mgen, ref.ggen = db.cacheGens(q.Measurement)
	now := time.Now().UnixNano()
	c.mu.Lock()
	e, ok := c.entries[ref.key]
	if ok && (now >= e.expires || e.mgen != ref.mgen || e.ggen != ref.ggen) {
		delete(c.entries, ref.key)
		ok = false
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, ref, false
	}
	c.hits.Add(1)
	// Return a copy of the top-level slice so callers appending to it do
	// not alias each other; the series themselves stay shared.
	return append([]Series(nil), e.res...), ref, true
}

// store files a computed result under a lookup's miss ref.
func (c *queryCache) store(db *DB, ref cacheRef, res []Series) {
	ttl := c.ttl.Load()
	if !ref.enabled || ttl <= 0 {
		return
	}
	e := &cacheEntry{res: res, mgen: ref.mgen, ggen: ref.ggen, expires: time.Now().UnixNano() + ttl}
	c.mu.Lock()
	if len(c.entries) >= maxQueryCacheEntries {
		c.evictLocked(db)
	}
	c.entries[ref.key] = e
	c.mu.Unlock()
}

// evictLocked drops expired and stale entries; if nothing qualified, one
// arbitrary entry is removed to make room.
func (c *queryCache) evictLocked(db *DB) {
	now := time.Now().UnixNano()
	ggen := db.globalGen.Load()
	dropped := false
	for k, e := range c.entries {
		if now >= e.expires || e.ggen != ggen {
			delete(c.entries, k)
			dropped = true
		}
	}
	if !dropped {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
}

// normKey builds the canonical cache identity of a query. Every column
// contributes its field, aggregate and percentile argument; column and
// group-by order are semantically relevant and kept; the tag filter is
// order-free and sorted. Every string component is
// length-prefixed, so no legal measurement, field, tag key or tag value
// (line-protocol escaping permits commas and '=' in all of them) can make
// two distinct queries collide on one key.
func normKey(q Query) string {
	var b strings.Builder
	frame := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	frame(q.Measurement)
	startNS, endNS := rangeNS(q.Start, q.End)
	b.WriteString(strconv.FormatInt(startNS, 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatInt(endNS, 10))
	b.WriteByte(';')
	keys := make([]string, 0, len(q.Filter))
	for k := range q.Filter {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		frame(k)
		frame(q.Filter[k])
	}
	b.WriteByte(';')
	for _, c := range q.Cols {
		frame(c.Field)
		frame(string(c.Agg))
		b.WriteString(strconv.FormatFloat(c.Pct, 'g', -1, 64))
		b.WriteByte(',')
	}
	b.WriteByte(';')
	for _, t := range q.GroupByTags {
		frame(t)
	}
	b.WriteByte(';')
	b.WriteString(strconv.FormatInt(q.Every.Nanoseconds(), 10))
	b.WriteByte(';')
	b.WriteString(strconv.Itoa(q.Limit))
	return b.String()
}
