package cluster

// Scatter-gather reads (DESIGN.md §12). Placement is per (db,
// measurement), so every SELECT — and every metadata statement scoped to
// one measurement — is answered whole by any single owner replica: the
// coordinator routes the statement to the healthiest owner and fails over
// to the next on error. That routing, not result stitching, is what keeps
// clustered answers byte-identical to a single node: the two-phase Select
// engine already merges its per-run partials in a fixed order on the
// owning node (agg.go), and splitting one measurement's aggregation
// across nodes would re-order those floating-point merges. Statements
// that span measurements (SHOW MEASUREMENTS, SHOW DATABASES, unscoped
// SHOW TAG VALUES) fan out to every node and union-merge their sorted
// string rows — set union commutes, so merge order cannot show.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// DistributedQuerier implements tsdb.Querier over the ring. It is the
// read-side twin of SinkFor: every consumer of the Querier interface —
// the dashboard, the analysis engine, the /query handler of each node —
// works against the cluster without change.
type DistributedQuerier struct {
	c *Cluster
}

// Querier returns the cluster's scatter-gather querier.
func (c *Cluster) Querier() *DistributedQuerier {
	return &DistributedQuerier{c: c}
}

// Query implements tsdb.Querier. Statement errors ride inside the
// response exactly as with a LocalQuerier; Query itself fails only when a
// statement's entire replica set is unreachable (the caller's retry is
// then meaningful) or the context is done.
func (q *DistributedQuerier) Query(ctx context.Context, req tsdb.Request) (tsdb.Response, error) {
	stmts := req.Statements
	if len(stmts) == 0 {
		var err error
		stmts, err = tsdb.ParseQuery(req.RawQuery)
		if err != nil {
			return tsdb.Response{}, err
		}
	}
	start := time.Now()
	defer func() { q.c.observeFanout(time.Since(start)) }()
	sp := obs.TraceFrom(ctx).Start("cluster.query").AttrInt("statements", int64(len(stmts)))
	defer sp.End()
	var resp tsdb.Response
	for _, st := range stmts {
		if err := ctx.Err(); err != nil {
			return tsdb.Response{}, err
		}
		res, err := q.execStatement(ctx, req, st)
		if err != nil {
			return tsdb.Response{}, err
		}
		resp.Results = append(resp.Results, res)
	}
	return resp, nil
}

func (q *DistributedQuerier) execStatement(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	switch st.Kind {
	case tsdb.StmtSelect:
		res, _, err := q.execRouted(ctx, req, st)
		return res, err
	case tsdb.StmtExplainAnalyze:
		return q.execExplainAnalyze(ctx, req, st)
	case tsdb.StmtShowFieldKeys, tsdb.StmtShowTagKeys, tsdb.StmtShowTagValues:
		if st.Query.Measurement != "" {
			res, _, err := q.execRouted(ctx, req, st)
			return res, err
		}
		return q.execFanAll(ctx, req, st)
	case tsdb.StmtShowMeasurements, tsdb.StmtShowDatabases:
		return q.execFanAll(ctx, req, st)
	case tsdb.StmtCreateDatabase, tsdb.StmtDropDatabase:
		return q.execFanAllStrict(ctx, req, st)
	default:
		return tsdb.ExecResult{}, fmt.Errorf("cluster: unsupported statement kind %d", st.Kind)
	}
}

// queryNode runs one statement on one node: the local store for self
// (no HTTP hop, native result values), the peer's /query with local=1
// otherwise.
func (q *DistributedQuerier) queryNode(ctx context.Context, id string, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	one := tsdb.Request{
		Database:   req.Database,
		Statements: []tsdb.Statement{st},
		Epoch:      req.Epoch,
		Limit:      req.Limit,
	}
	n := q.c.nodes[id]
	var resp tsdb.Response
	var err error
	if n != nil && n.local != nil {
		resp, err = tsdb.LocalQuerier{Store: n.local}.Query(ctx, one)
	} else {
		resp, err = q.c.clientFor(id, req.Database).Query(ctx, one)
	}
	if err != nil {
		return tsdb.ExecResult{}, err
	}
	if len(resp.Results) != 1 {
		return tsdb.ExecResult{}, fmt.Errorf("cluster: node %s returned %d results for one statement", id, len(resp.Results))
	}
	return resp.Results[0], nil
}

// isNoDatabase reports the one embedded error that is topology-dependent:
// a replica that never saw the database answers "does not exist" while
// another replica holds it. Every other embedded error (bad aggregate,
// bad epoch) is deterministic across replicas and passes through.
func isNoDatabase(res tsdb.ExecResult) bool {
	return res.Err == tsdb.ErrNoDatabase.Error()
}

// routeAttempt records one replica attempt of a routed statement for the
// EXPLAIN ANALYZE routing profile.
type routeAttempt struct {
	node   string
	durNS  int64
	status string // "ok", "no-database", or the error text
}

// execRouted routes a measurement-scoped statement to its owner slice:
// first healthy owner answers, the rest are failover targets. A replica
// with queued hints is tried last — it is known to be missing
// acknowledged writes until handoff drains. The returned attempts are the
// routing profile EXPLAIN ANALYZE renders: which replicas were tried, how
// long each took, and how each answered; the last attempt of a successful
// route is the chosen replica.
func (q *DistributedQuerier) execRouted(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, []routeAttempt, error) {
	owners := q.c.owners(req.Database, st.Query.Measurement)
	if len(owners) == 0 {
		return tsdb.ExecResult{}, nil, fmt.Errorf("cluster: empty ring")
	}
	tr := obs.TraceFrom(ctx)
	var attempts []routeAttempt
	var noDB *tsdb.ExecResult
	var lastErr error
	for i, id := range q.c.readOrder(owners) {
		if err := ctx.Err(); err != nil {
			return tsdb.ExecResult{}, attempts, err
		}
		if i > 0 {
			q.c.readFailovers.Add(1)
		}
		sp := tr.Start("cluster.query.node").Attr("peer", id)
		t0 := time.Now()
		res, err := q.queryNode(ctx, id, req, st)
		at := routeAttempt{node: id, durNS: int64(time.Since(t0)), status: "ok"}
		if err != nil {
			at.status = err.Error()
			sp.Attr("error", err.Error())
		} else if isNoDatabase(res) {
			at.status = "no-database"
		}
		sp.End()
		attempts = append(attempts, at)
		if err != nil {
			lastErr = err
			continue
		}
		if isNoDatabase(res) {
			noDB = &res
			continue
		}
		return res, attempts, nil
	}
	if noDB != nil {
		// Every reachable replica lacks the database: same answer a single
		// node would give.
		return *noDB, attempts, nil
	}
	return tsdb.ExecResult{}, attempts, fmt.Errorf("cluster: all %d replicas failed: %w", len(owners), lastErr)
}

// execExplainAnalyze routes EXPLAIN ANALYZE exactly like the SELECT it
// wraps — the chosen replica executes it and returns the SELECT's series
// plus its storage-side profile — and appends the coordinator's routing
// profile as one more series: the chosen replica and every attempt's
// timing (DESIGN.md §14).
func (q *DistributedQuerier) execExplainAnalyze(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	res, attempts, err := q.execRouted(ctx, req, st)
	if err != nil {
		return tsdb.ExecResult{}, err
	}
	s := tsdb.ResultSeries{
		Name:    tsdb.ExplainClusterSeriesName,
		Columns: []string{"metric", "value"},
	}
	chosen := ""
	if n := len(attempts); n > 0 && attempts[n-1].status == "ok" {
		chosen = attempts[n-1].node
	}
	s.Values = append(s.Values,
		[]interface{}{"replication", q.c.cfg.Replication},
		[]interface{}{"chosen_replica", chosen},
		[]interface{}{"attempts", len(attempts)},
	)
	for i, at := range attempts {
		p := "attempt_" + strconv.Itoa(i+1)
		s.Values = append(s.Values,
			[]interface{}{p + "_node", at.node},
			[]interface{}{p + "_ns", at.durNS},
			[]interface{}{p + "_status", at.status},
		)
	}
	res.Series = append(res.Series, s)
	return res, nil
}

// fanResults runs one statement on every cluster member concurrently.
func (q *DistributedQuerier) fanResults(ctx context.Context, req tsdb.Request, st tsdb.Statement) ([]tsdb.ExecResult, []error) {
	ids := q.c.ring.Nodes()
	results := make([]tsdb.ExecResult, len(ids))
	errs := make([]error, len(ids))
	done := make(chan int, len(ids))
	for i, id := range ids {
		go func(i int, id string) {
			results[i], errs[i] = q.queryNode(ctx, id, req, st)
			done <- i
		}(i, id)
	}
	for range ids {
		<-done
	}
	return results, errs
}

// execFanAll answers a cluster-wide metadata statement as the union of
// every reachable node's sorted answer. Down nodes are tolerated: with
// R >= 2 every measurement still has a live owner in the union, so the
// merged answer matches the single-node one with one replica dead — the
// invariant the 3-node harness pins down.
func (q *DistributedQuerier) execFanAll(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	results, errs := q.fanResults(ctx, req, st)
	if err := ctx.Err(); err != nil {
		return tsdb.ExecResult{}, err
	}
	merged := skeletonFor(st)
	seen := make(map[string]struct{})
	var rows []rowKey
	ok, noDB := 0, 0
	var lastErr error
	for i := range results {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		res := results[i]
		if isNoDatabase(res) {
			noDB++
			continue
		}
		if res.Err != "" {
			// Deterministic statement error: identical on every node.
			return res, nil
		}
		ok++
		for _, s := range res.Series {
			for _, row := range s.Values {
				k := rowString(row)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				rows = append(rows, rowKey{key: k, row: row})
			}
		}
	}
	if ok == 0 {
		if noDB > 0 {
			return tsdb.ExecResult{Err: tsdb.ErrNoDatabase.Error()}, nil
		}
		return tsdb.ExecResult{}, fmt.Errorf("cluster: all %d nodes failed: %w", len(results), lastErr)
	}
	// Each node emits its rows sorted; the union re-sorts on the same keys,
	// so the merged order is the order a single node holding all the data
	// would emit. Values stays nil when the union is empty — the JSON door
	// distinguishes null from [] and a single node emits null.
	sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	for _, r := range rows {
		merged.Series[0].Values = append(merged.Series[0].Values, r.row)
	}
	return merged, nil
}

// execFanAllStrict runs CREATE/DROP DATABASE on every member. Unreachable
// peers are tolerated (they catch up through ensureDatabase and write
// autocreation), but a peer that was reached and refused — a durable open
// failure, say — surfaces: masking it would acknowledge a database that
// cannot durably exist.
func (q *DistributedQuerier) execFanAllStrict(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	results, errs := q.fanResults(ctx, req, st)
	if err := ctx.Err(); err != nil {
		return tsdb.ExecResult{}, err
	}
	reached := 0
	var lastErr error
	for i := range results {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		reached++
		if results[i].Err != "" {
			return results[i], nil
		}
	}
	if reached == 0 {
		return tsdb.ExecResult{}, fmt.Errorf("cluster: all %d nodes failed: %w", len(results), lastErr)
	}
	return tsdb.ExecResult{}, nil
}

type rowKey struct {
	key string
	row []interface{}
}

// rowString is the dedupe/sort key of one metadata row. Metadata rows are
// all-string ([name] or [key, value]); the NUL join keeps multi-column
// rows unambiguous and sorts exactly like the per-node sort.Strings order.
func rowString(row []interface{}) string {
	if len(row) == 1 {
		s, _ := row[0].(string)
		return s
	}
	key := ""
	for i, v := range row {
		s, _ := v.(string)
		if i > 0 {
			key += "\x00"
		}
		key += s
	}
	return key
}

// skeletonFor builds the empty result shell of a fanned metadata
// statement with the exact Name/Columns a single node emits, so a merge
// over zero rows still renders byte-identically.
func skeletonFor(st tsdb.Statement) tsdb.ExecResult {
	var s tsdb.ResultSeries
	switch st.Kind {
	case tsdb.StmtShowDatabases:
		s = tsdb.ResultSeries{Name: "databases", Columns: []string{"name"}}
	case tsdb.StmtShowMeasurements:
		s = tsdb.ResultSeries{Name: "measurements", Columns: []string{"name"}}
	case tsdb.StmtShowFieldKeys:
		s = tsdb.ResultSeries{Name: st.Query.Measurement, Columns: []string{"fieldKey"}}
	case tsdb.StmtShowTagKeys:
		s = tsdb.ResultSeries{Name: st.Query.Measurement, Columns: []string{"tagKey"}}
	case tsdb.StmtShowTagValues:
		s = tsdb.ResultSeries{Name: st.Query.Measurement, Columns: []string{"key", "value"}}
	}
	return tsdb.ExecResult{Series: []tsdb.ResultSeries{s}}
}
