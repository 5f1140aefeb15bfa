package main

// The correctness oracle. After the writes of a run every lms-db door
// must answer count/min/max/first/last per measurement exactly as the
// generator's model of the acknowledged requests says, byte for byte the
// same at every door, with no hint left queued. Read answers are checked
// one by one against reference hashes (layers.go computes them on a
// single in-process node: the repo's byte-identity invariant).
//
// The crash half of the oracle (SIGKILL, restart, same checks) proves
// that acknowledged writes survive a process crash. The operating
// system's cache survives a SIGKILL, so it says nothing about a power
// cut; that stays with the faultfs sweeps in internal/tsdb.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// verdict collects what the oracle looked at and what it found wrong.
type verdict struct {
	checks int
	failed int
	notes  []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	v.note(format, args...)
}

// note keeps the first few explanations; the counts keep them all.
func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

var oracleAggs = []string{"count", "min", "max", "first", "last"}

// oracleStatement asks for the modelled aggregates of every measurement
// in one request. Each aggregate is its own statement: asked for in one
// SELECT, several aggregates of one field all come back as the last one
// (see "Findings" in bench/README.md).
func oracleStatement(schema []measurement) statement {
	var parts []string
	for _, m := range schema {
		for _, a := range oracleAggs {
			parts = append(parts, fmt.Sprintf("SELECT %s(%s) FROM %s", a, m.fields[0].name, m.name))
		}
	}
	return statement{text: strings.Join(parts, "; "), epoch: "ns"}
}

type queryReply struct {
	Results []struct {
		Series []struct {
			Values [][]json.Number `json:"values"`
		} `json:"series"`
		Error string `json:"error"`
	} `json:"results"`
}

// checkModel runs the oracle statement at every door and compares the
// answers with each other and with the model. It returns the reply
// body, which crash recovery waits to see again.
func checkModel(c *conn, nodes []string, schema []measurement, model summary, v *verdict) []byte {
	st := oracleStatement(schema)
	var first []byte
	for i, node := range nodes {
		v.checks++
		status, body, err := c.do(http.MethodGet, queryURL(node, st), nil, nil)
		if err != nil || status != http.StatusOK {
			v.fail("oracle query at door %d: status %d err %v", i, status, err)
			continue
		}
		if first == nil {
			first = bytes.Clone(body)
		} else if !bytes.Equal(first, body) {
			v.fail("oracle answer differs between door 0 and door %d:\n  %s\n  %s", i, first, body)
		}
	}
	if first == nil {
		return nil
	}
	var reply queryReply
	if err := json.Unmarshal(first, &reply); err != nil || len(reply.Results) != len(schema)*len(oracleAggs) {
		v.fail("oracle answer unreadable (%v): %s", err, first)
		return first
	}
	for i, m := range schema {
		want := model.aggs[i]
		exp := []float64{float64(want.Count), want.Min, want.Max, want.First, want.Last}
		for j, name := range oracleAggs {
			v.checks++
			res := reply.Results[i*len(oracleAggs)+j]
			switch {
			case res.Error != "":
				v.fail("%s: %s: %s", m.name, name, res.Error)
			case want.Count == 0:
				if len(res.Series) != 0 {
					v.fail("%s: rows for a measurement nobody wrote", m.name)
				}
			case len(res.Series) != 1 || len(res.Series[0].Values) != 1 || len(res.Series[0].Values[0]) != 2:
				v.fail("%s: %s: unexpected shape in %s", m.name, name, first)
			default:
				if got, _ := res.Series[0].Values[0][1].Float64(); got != exp[j] {
					v.fail("%s: %s is %v, the acknowledged writes make it %v", m.name, name, got, exp[j])
				}
			}
		}
	}
	return first
}

// checkHintsDrained waits for the router's hinted-handoff queues to be
// empty: on a healthy run nothing is ever parked there.
func checkHintsDrained(router string, v *verdict) float64 {
	v.checks++
	var depth float64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		s, err := scrape(router)
		if err != nil {
			v.fail("router /metrics: %v", err)
			return 0
		}
		depth = s.sum("lms_cluster_hint_queue_depth", "")
		if depth == 0 || time.Now().After(deadline) {
			break
		}
	}
	if depth != 0 {
		v.fail("lms_cluster_hint_queue_depth is %v after the run", depth)
	}
	return depth
}

// checkReads issues every pooled statement once at one door and compares
// the body with its reference.
func checkReads(c *conn, node string, pool []statement, refs []uint64, v *verdict) {
	for i, st := range pool {
		v.checks++
		status, body, err := c.do(http.MethodGet, queryURL(node, st), nil, nil)
		if err != nil || status != http.StatusOK {
			v.fail("statement %d: status %d err %v", i, status, err)
		} else if bodyHash(body) != refs[i] {
			v.fail("statement %d answered differently from the single-node reference: %s", i, st.text)
		}
	}
}

// awaitRecovery polls every door until it answers the oracle statement
// with exactly the pre-crash body.
func awaitRecovery(c *conn, nodes []string, schema []measurement, want []byte) error {
	st := oracleStatement(schema)
	deadline := time.Now().Add(readyTimeout)
	for _, node := range nodes {
		for {
			status, body, err := c.do(http.MethodGet, queryURL(node, st), nil, nil)
			if err == nil && status == http.StatusOK && bytes.Equal(body, want) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("door %s did not return the pre-crash answer within %v (status %d, err %v)", node, readyTimeout, status, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
