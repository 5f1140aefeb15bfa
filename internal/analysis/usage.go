package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// This file implements the fourth goal of the paper's introduction:
// "enable application-specific statistical performance analysis of system
// usage for optimizing operational settings and guiding future
// procurements". Every evaluated job contributes one UsageRecord; the
// UsageStats accumulator produces per-user and cluster-wide summaries with
// pattern histograms and wasted-capacity accounting.

// UsageRecord is the statistical footprint of one finished job.
type UsageRecord struct {
	JobID        string
	User         string
	Nodes        int
	Walltime     time.Duration
	NodeHours    float64
	Pattern      Pattern
	Pathological bool
	// WastedNodeHours is the capacity burned inside detected pathological
	// intervals (interval duration x nodes involved).
	WastedNodeHours float64
	// MeanCPUUtil, MeanDPMFlops and MeanMemBWMBs summarize resource usage.
	MeanCPUUtil  float64
	MeanDPMFlops float64
	MeanMemBWMBs float64
}

// RecordFromReport derives the usage record of an evaluated job.
func RecordFromReport(rep *Report) UsageRecord {
	job := rep.Job
	wall := job.End.Sub(job.Start)
	if wall < 0 {
		wall = 0
	}
	rec := UsageRecord{
		JobID:        job.ID,
		User:         job.User,
		Nodes:        len(job.Nodes),
		Walltime:     wall,
		NodeHours:    wall.Hours() * float64(len(job.Nodes)),
		Pattern:      rep.Classification.Pattern,
		Pathological: rep.Pathological(),
	}
	for _, v := range rep.Violations {
		rec.WastedNodeHours += v.Duration().Hours()
	}
	if row, ok := rep.rowByField("cpu", "percent"); ok && row.Stats.N > 0 {
		rec.MeanCPUUtil = row.Stats.Mean / 100
	}
	if row, ok := rep.rowByField("likwid_mem_dp", "dp_mflop_s"); ok && row.Stats.N > 0 {
		rec.MeanDPMFlops = row.Stats.Mean
	}
	if row, ok := rep.rowByField("likwid_mem_dp", "memory_bandwidth_mbytes_s"); ok && row.Stats.N > 0 {
		rec.MeanMemBWMBs = row.Stats.Mean
	}
	return rec
}

// UserUsage is the per-user aggregate.
type UserUsage struct {
	User             string
	Jobs             int
	NodeHours        float64
	PathologicalJobs int
	WastedNodeHours  float64
	Patterns         map[Pattern]int
	meanCPUSum       float64
}

// MeanCPUUtil is the job-weighted average CPU utilization.
func (u *UserUsage) MeanCPUUtil() float64 {
	if u.Jobs == 0 {
		return 0
	}
	return u.meanCPUSum / float64(u.Jobs)
}

// UsageStats accumulates records. The zero value is ready to use.
type UsageStats struct {
	records []UsageRecord
}

// Add appends one record.
func (s *UsageStats) Add(rec UsageRecord) {
	s.records = append(s.records, rec)
}

// Len returns the record count.
func (s *UsageStats) Len() int { return len(s.records) }

// PerUser aggregates by user, sorted by node-hours descending.
func (s *UsageStats) PerUser() []UserUsage {
	byUser := map[string]*UserUsage{}
	for _, r := range s.records {
		u, ok := byUser[r.User]
		if !ok {
			u = &UserUsage{User: r.User, Patterns: map[Pattern]int{}}
			byUser[r.User] = u
		}
		u.Jobs++
		u.NodeHours += r.NodeHours
		u.WastedNodeHours += r.WastedNodeHours
		u.meanCPUSum += r.MeanCPUUtil
		if r.Pathological {
			u.PathologicalJobs++
		}
		if r.Pattern != "" {
			u.Patterns[r.Pattern]++
		}
	}
	out := make([]UserUsage, 0, len(byUser))
	for _, u := range byUser {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeHours != out[j].NodeHours {
			return out[i].NodeHours > out[j].NodeHours
		}
		return out[i].User < out[j].User
	})
	return out
}

// ClusterSummary is the whole-system view.
type ClusterSummary struct {
	Jobs             int
	Users            int
	NodeHours        float64
	PathologicalJobs int
	WastedNodeHours  float64
	Patterns         map[Pattern]int
	// BandwidthBoundShare and ComputeBoundShare inform procurement: a
	// bandwidth-dominated mix argues for more memory channels over cores.
	BandwidthBoundShare float64
	ComputeBoundShare   float64
}

// Summary computes the cluster-wide aggregate.
func (s *UsageStats) Summary() ClusterSummary {
	sum := ClusterSummary{Patterns: map[Pattern]int{}}
	users := map[string]bool{}
	classified := 0
	for _, r := range s.records {
		sum.Jobs++
		users[r.User] = true
		sum.NodeHours += r.NodeHours
		sum.WastedNodeHours += r.WastedNodeHours
		if r.Pathological {
			sum.PathologicalJobs++
		}
		if r.Pattern != "" {
			sum.Patterns[r.Pattern]++
			classified++
		}
	}
	sum.Users = len(users)
	if classified > 0 {
		sum.BandwidthBoundShare = float64(sum.Patterns[PatternBandwidthBound]) / float64(classified)
		sum.ComputeBoundShare = float64(sum.Patterns[PatternComputeBound]) / float64(classified)
	}
	return sum
}

// FormatReport renders the usage statistics for operators.
func (s *UsageStats) FormatReport() string {
	var b strings.Builder
	sum := s.Summary()
	fmt.Fprintf(&b, "Cluster usage: %d jobs by %d users, %.1f node-hours total\n",
		sum.Jobs, sum.Users, sum.NodeHours)
	if sum.Jobs == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "Pathological jobs: %d (%.0f%%), wasted capacity: %.1f node-hours (%.1f%%)\n",
		sum.PathologicalJobs,
		100*float64(sum.PathologicalJobs)/float64(sum.Jobs),
		sum.WastedNodeHours,
		pct(sum.WastedNodeHours, sum.NodeHours))
	b.WriteString("Pattern mix:")
	patterns := make([]Pattern, 0, len(sum.Patterns))
	for p := range sum.Patterns {
		patterns = append(patterns, p)
	}
	sort.Slice(patterns, func(i, j int) bool { return patterns[i] < patterns[j] })
	for _, p := range patterns {
		fmt.Fprintf(&b, " %s=%d", p, sum.Patterns[p])
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "Procurement signal: %.0f%% bandwidth-bound vs %.0f%% compute-bound jobs\n",
		100*sum.BandwidthBoundShare, 100*sum.ComputeBoundShare)
	b.WriteString("\nPer-user:\n")
	fmt.Fprintf(&b, "%-10s %6s %12s %8s %8s  %s\n", "user", "jobs", "node-hours", "patho", "cpu-util", "dominant pattern")
	for _, u := range s.PerUser() {
		fmt.Fprintf(&b, "%-10s %6d %12.1f %8d %7.0f%%  %s\n",
			u.User, u.Jobs, u.NodeHours, u.PathologicalJobs,
			100*u.MeanCPUUtil(), dominantPattern(u.Patterns))
	}
	return b.String()
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

func dominantPattern(patterns map[Pattern]int) Pattern {
	best := Pattern("-")
	bestN := math.MinInt32
	keys := make([]Pattern, 0, len(patterns))
	for p := range patterns {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, p := range keys {
		if patterns[p] > bestN {
			best, bestN = p, patterns[p]
		}
	}
	return best
}
