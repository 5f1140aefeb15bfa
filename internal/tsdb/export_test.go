package tsdb

import "time"

// The row-at-a-time oracle and its dataset, for the statement-level
// differential test: that one lives in package tsdb_test because it also
// drives the cluster coordinator, and internal/cluster imports this package.
var (
	ReferenceSelect   = referenceSelect
	SeedSelectBatches = seedSelectBatches
	OracleCols        = oracleCols
	ExactAggs         = exactAggs
	AllAggs           = allAggs
)

// DropBefore removes all points older than t from every series: a
// retention sweep with a chosen cutoff.
func (db *DB) DropBefore(t time.Time) {
	db.pruneNow(t.UnixNano())
}
