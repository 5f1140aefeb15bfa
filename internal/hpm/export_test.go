package hpm

import "sort"

// Names lists the groups sorted by name.
func (gs *GroupSet) Names() []string {
	names := make([]string, 0, len(gs.groups))
	for n := range gs.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Max returns the per-thread maximum of a metric.
func (r *Result) Max(metric string) float64 {
	first := true
	var m float64
	for _, tid := range r.Threads {
		v := r.Metrics[tid][metric]
		if first || v > m {
			m = v
			first = false
		}
	}
	return m
}

// Min returns the per-thread minimum of a metric.
func (r *Result) Min(metric string) float64 {
	first := true
	var m float64
	for _, tid := range r.Threads {
		v := r.Metrics[tid][metric]
		if first || v < m {
			m = v
			first = false
		}
	}
	return m
}
