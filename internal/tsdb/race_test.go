//go:build race

package tsdb

// raceEnabled reports a -race build, whose heap and timings are not the
// product's.
const raceEnabled = true
