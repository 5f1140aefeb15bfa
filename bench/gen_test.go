package main

import (
	"bytes"
	"testing"
)

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	for _, s := range workloads {
		a, b, other := newGen(s, 7), newGen(s, 7), newGen(s, 8)
		ba, suma := a.writeBody(nil, 3)
		bb, sumb := b.writeBody(nil, 3)
		bo, _ := other.writeBody(nil, 3)
		if !bytes.Equal(ba, bb) {
			t.Errorf("%s: one seed, two bodies", s.name)
		}
		if bytes.Equal(ba, bo) {
			t.Errorf("%s: two seeds, one body", s.name)
		}
		if suma.points != s.perWrite*s.linesPerCycle() || suma.points != sumb.points {
			t.Errorf("%s: body of %d points, want %d", s.name, suma.points, s.perWrite*s.linesPerCycle())
		}
		pa, pb, po := a.statements(), b.statements(), other.statements()
		if len(pa) == 0 || len(pa) != len(pb) {
			t.Fatalf("%s: pools of %d and %d statements", s.name, len(pa), len(pb))
		}
		same := 0
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: one seed, statement %d differs", s.name, i)
			}
			if i < len(po) && pa[i] == po[i] {
				same++
			}
		}
		if same == len(pa) {
			t.Errorf("%s: two seeds, one pool", s.name)
		}
		oa, ob := a.requestOrder(pa, 0, 2), b.requestOrder(pb, 0, 2)
		if len(oa) != len(ob) {
			t.Errorf("%s: one seed, two request orders", s.name)
		}
	}
}

func TestPoolKeepsTheRequestMix(t *testing.T) {
	s, _ := findWorkload("dashboard-read")
	g := newGen(s, 1)
	pool := g.statements()
	var issued [numKinds]int
	repeats, total := 0, 0
	for conn := 0; conn < 2; conn++ {
		prev := -1
		for _, idx := range g.requestOrder(pool, conn, 2) {
			issued[pool[idx].kind]++
			total++
			if idx == prev {
				repeats++
			}
			prev = idx
		}
	}
	for k, want := range s.mix {
		got := 100 * float64(issued[k]) / float64(total)
		if got < float64(want)-3 || got > float64(want)+3 {
			t.Errorf("%s requests are %.1f%% of the mix, want about %d%%", kindNames[k], got, want)
		}
	}
	if share := 100 * float64(repeats) / float64(issued[kindPanel]); share < float64(s.repeatPct)-4 || share > float64(s.repeatPct)+4 {
		t.Errorf("repeats are %.1f%% of panel requests, want about %d%%", share, s.repeatPct)
	}
	seen := map[string]bool{}
	for _, st := range pool {
		if st.kind != kindMeta && seen[st.text] {
			t.Errorf("SELECT twice in the pool: %s", st.text)
		}
		seen[st.text] = true
	}
}

func TestModelFollowsTheBody(t *testing.T) {
	s, _ := findWorkload("collector-batch")
	g := newGen(s, 1)
	_, sum := g.body(nil, 0, 2*s.sources) // two cycles of every host
	if sum.points != 2*s.sources*100 {
		t.Fatalf("points = %d", sum.points)
	}
	cpu := sum.aggs[0] // one line per host cycle
	if cpu.Count != int64(2*s.sources) || cpu.Min > cpu.Max {
		t.Errorf("cpu model %+v", cpu)
	}
	if cpu.firstTS != baseNS+1e6 || cpu.lastTS != baseNS+cycleNS+int64(s.sources)*1e6 {
		t.Errorf("cpu first/last timestamps %d %d", cpu.firstTS, cpu.lastTS)
	}
	var merged summary = g.newSummary()
	for u := 0; u < 2*s.sources; u++ {
		_, one := g.body(nil, u, 1)
		merged.add(one)
	}
	if merged.aggs[1] != sum.aggs[1] {
		t.Errorf("merging per-unit summaries gives %+v, one pass gives %+v", merged.aggs[1], sum.aggs[1])
	}
}
