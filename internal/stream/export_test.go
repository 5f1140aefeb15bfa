package stream

import "math"

// Stddev returns the running sample standard deviation.
func (a *Aggregate) Stddev() float64 {
	if a.Count < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.Count-1))
}
