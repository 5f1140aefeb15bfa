package tsdb

// The inverted tag index of a measurement (DESIGN.md §6, phase 1): tag key
// → tag value → the series carrying that pair, each list in series-key
// order — the postings of Prometheus TSDB, the tag index of InfluxDB's TSI.
// Phase 1 starts from the shortest list a query's filter names and checks
// the filter's other pairs on those series alone, so the read-lock hold and
// the CPU of a panel follow its matches, not the size of the measurement;
// SHOW TAG KEYS, SHOW TAG VALUES and GROUP BY * read the index's keys and
// values instead of walking every series.
//
// The index is written under the shard write lock, in the three places a
// series is born or dies: shard.writeFrame, loadSnapshot and pruneLocked.
// It holds no string of its own — its map keys are the tag strings of the
// series that first carried them — and a posting is a uint32 ordinal into
// slots, half the bytes of a pointer.

import (
	"maps"
	"slices"
	"strings"
)

// tagIndex is one measurement's inverted tag index.
type tagIndex struct {
	slots  []*series                      // ordinal → series, in order of arrival since the last rebuild
	sorted []uint32                       // every series, in series-key order
	tags   map[string]map[string][]uint32 // tag key → tag value → series carrying the pair, in series-key order
}

// add indexes a series new to the measurement.
func (ix *tagIndex) add(sr *series) {
	o := uint32(len(ix.slots))
	ix.slots = append(ix.slots, sr)
	ix.sorted = ix.insert(ix.sorted, o)
	if ix.tags == nil {
		ix.tags = make(map[string]map[string][]uint32)
	}
	for k, v := range sr.tags {
		vals := ix.tags[k]
		if vals == nil {
			vals = make(map[string][]uint32)
			ix.tags[k] = vals
		}
		vals[v] = ix.insert(vals[v], o)
	}
}

// insert puts ordinal o into a list in series-key order. A series whose key
// sorts last — every series of a rebuild, most of a job's new ones — is
// appended without a search.
func (ix *tagIndex) insert(list []uint32, o uint32) []uint32 {
	key := ix.slots[o].key
	if n := len(list); n == 0 || ix.slots[list[n-1]].key < key {
		return append(list, o)
	}
	i, _ := slices.BinarySearchFunc(list, key, func(p uint32, key string) int {
		return strings.Compare(ix.slots[p].key, key)
	})
	return slices.Insert(list, i, o)
}

// rebuild indexes the series of all afresh, ordinals in key order. Recovery builds a
// measurement's index this way, and a retention sweep rebuilds it after
// deleting series, which leaves no stale slot behind.
func (ix *tagIndex) rebuild(all map[string]*series) {
	keys := slices.Sorted(maps.Keys(all))
	*ix = tagIndex{slots: make([]*series, 0, len(keys)), sorted: make([]uint32, 0, len(keys))}
	for _, k := range keys {
		ix.add(all[k])
	}
}

// candidates returns the series a filter can match, in series-key order:
// the shortest posting list among the filter's pairs, or every series when
// there is no filter. The caller checks the filter's other pairs.
func (ix *tagIndex) candidates(f TagFilter) []uint32 {
	if len(f) == 0 {
		return ix.sorted
	}
	var list []uint32
	first := true
	for k, v := range f {
		if p := ix.tags[k][v]; first || len(p) < len(list) {
			list, first = p, false
		}
	}
	return list
}

// tagKeys lists the measurement's tag keys, sorted.
func (ix *tagIndex) tagKeys() []string {
	return slices.Sorted(maps.Keys(ix.tags))
}
