package main

import "testing"

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	parent := span{Name: spanClusterW, StartNS: 100, EndNS: 1100}
	children := []span{
		{StartNS: 200, EndNS: 500},   // 300
		{StartNS: 400, EndNS: 700},   // overlaps the first: adds 200
		{StartNS: 450, EndNS: 600},   // inside the union: adds nothing
		{StartNS: 900, EndNS: 1300},  // runs past the parent: 200 of it count
		{StartNS: 0, EndNS: 50},      // before the parent: nothing
		{StartNS: 1000, EndNS: 1000}, // empty
	}
	if got := coveredNS(parent, children); got != 700 {
		t.Errorf("covered = %d, want 700", got)
	}
	if got := selfNS(parent, children); got != 300 {
		t.Errorf("self = %d, want 300", got)
	}
	if got := selfNS(parent, nil); got != 1000 {
		t.Errorf("self without children = %d, want 1000", got)
	}
}

func TestBreakdownsGroupByOpAndParentName(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: spanClusterW, Parent: spanRouter, Op: "a", StartNS: 0, EndNS: 100},
		{Name: spanServeWrite, Parent: spanClusterW, Op: "a", StartNS: 10, EndNS: 60, Bytes: 7},
		{Name: spanServeWrite, Parent: spanClusterW, Op: "a", StartNS: 20, EndNS: 90, Bytes: 5},
		{Name: spanServeWrite, Parent: spanClusterW, Op: "b", StartNS: 0, EndNS: 10},
		{Name: spanClusterW, Parent: spanRouter, Op: "b", StartNS: 0, EndNS: 40},
		{Name: spanServeQuery, Parent: spanRequest, Op: "c", StartNS: 0, EndNS: 40},
	}
	bs := tr.breakdowns(spanClusterW)
	if len(bs) != 2 || len(bs[0].children) != 2 || len(bs[1].children) != 1 {
		t.Fatalf("breakdowns: %+v", bs)
	}
	m := spanMetrics(tr, 10)
	if got := m["cluster.peer_requests_per_batch"].v; got != 1.5 {
		t.Errorf("peer requests per batch = %v", got)
	}
	if got := m["cluster.write_wait_us_per_batch"].v; got != (80+10)/2.0/1e3 {
		t.Errorf("wait = %v us", got)
	}
	if got := m["cluster.peer_bytes_per_point"].v; got != 12.0/10/2 {
		t.Errorf("peer bytes per point = %v", got)
	}
}
