package tsdb

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
