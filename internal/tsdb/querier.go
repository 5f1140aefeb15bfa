package tsdb

// The first-class query API of the stack (DESIGN.md §7).
//
// The paper's monitoring stack is explicitly multi-process: collectors,
// router, metrics database and web front-end run as separate services on
// separate hosts. Querier is the one door every read-side consumer — the
// dashboard viewer, the analysis engine, offline tools — walks through,
// whether the database lives in the same process (LocalQuerier) or behind
// the InfluxDB-compatible HTTP API (Client in http.go). Swapping one for
// the other changes deployment topology, never behavior: the equivalence
// suite in querier_test.go holds both to byte-identical JSON results.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Request describes one query round-trip.
type Request struct {
	// Database is the target database. Empty falls back to the querier's
	// default (Client.Database), if any.
	Database string

	// RawQuery is InfluxQL text, used when Statements is empty.
	RawQuery string

	// Statements is the pre-parsed AST form. A LocalQuerier executes it
	// directly against the Select engine — no string round-trip — while the
	// HTTP Client serializes it back to canonical InfluxQL (Statement.Text)
	// for the wire. Takes precedence over RawQuery.
	Statements []Statement

	// Epoch selects integer result timestamps in the given precision
	// ("ns", "u", "ms", "s", "m", "h") instead of RFC3339 strings,
	// mirroring the InfluxDB /query epoch parameter.
	Epoch string

	// Chunked asks the HTTP transport to stream one JSON document per
	// statement instead of a single response document. Results are
	// identical; large responses start flowing before the last statement
	// finished. Ignored by LocalQuerier.
	Chunked bool
}

// Response is the result set of a Request, one entry per statement. It is
// also the wire format of the /query endpoint ({"results": [...]}).
type Response struct {
	Results []ExecResult `json:"results"`
}

// Err returns the first per-statement execution error embedded in the
// response, if any. Transport- and parse-level failures are returned by
// Querier.Query itself; statement failures ride inside the response so one
// bad statement does not hide the results of its neighbours.
func (r Response) Err() error {
	for _, res := range r.Results {
		if res.Err != "" {
			return fmt.Errorf("tsdb: %s", res.Err)
		}
	}
	return nil
}

// Querier is the read-side API of the stack. Implementations: LocalQuerier
// (in-process store) and *Client (remote HTTP). Components that only read —
// the dashboard viewer, the analysis evaluator, report tooling — depend on
// this interface and nothing else, so they run unchanged against a local
// store or a remote lms-db.
type Querier interface {
	Query(ctx context.Context, req Request) (Response, error)
}

// LocalQuerier executes requests directly against an in-process Store.
// Pre-parsed statements skip the InfluxQL string round-trip entirely and
// run straight on the two-phase Select engine.
type LocalQuerier struct {
	Store *Store
}

// Query implements Querier.
func (lq LocalQuerier) Query(ctx context.Context, req Request) (Response, error) {
	if lq.Store == nil {
		return Response{}, fmt.Errorf("tsdb: local querier has no store")
	}
	stmts := req.Statements
	if len(stmts) == 0 {
		var err error
		stmts, err = ParseQuery(req.RawQuery)
		if err != nil {
			return Response{}, err
		}
	}
	var resp Response
	err := execStatements(ctx, lq.Store, req.Database, stmts, req.Epoch,
		func(res ExecResult) error {
			resp.Results = append(resp.Results, res)
			return nil
		})
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}

// execStatements runs each statement in order, emitting one ExecResult per
// statement. Execution errors are embedded per result (matching the HTTP
// handler); context cancellation aborts the remaining statements and is
// returned as the error. Shared by LocalQuerier and the /query handler so
// both doors behave identically.
func execStatements(ctx context.Context, store *Store, dbName string, stmts []Statement, epoch string, emit func(ExecResult) error) error {
	for _, st := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := ExecuteContext(ctx, store, dbName, st, epoch)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res = ExecResult{Err: err.Error()}
		}
		if err := emit(res); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Programmatic statement construction.
//
// Read-side components build their queries as ASTs once and hand them to a
// Querier; against a LocalQuerier they execute without ever becoming a
// string. The constructors produce exactly what ParseQuery would, so the
// remote wire form (Text) round-trips to the same statement.

// SelectStatement builds a SELECT over q's measurement, range, filter,
// grouping and limit, projecting cols; none selects every field (SELECT *).
func SelectStatement(q Query, cols ...AggCol) Statement {
	q.Cols = cols
	return Statement{Kind: StmtSelect, Query: q}
}

// ShowMeasurementsStatement builds SHOW MEASUREMENTS.
func ShowMeasurementsStatement() Statement {
	return Statement{Kind: StmtShowMeasurements}
}

// ShowFieldKeysStatement builds SHOW FIELD KEYS FROM measurement.
func ShowFieldKeysStatement(measurement string) Statement {
	return Statement{Kind: StmtShowFieldKeys, Query: Query{Measurement: measurement}}
}

// ShowTagValuesStatement builds SHOW TAG VALUES [FROM measurement] WITH
// KEY = key. An empty measurement scans all measurements.
func ShowTagValuesStatement(measurement, key string) Statement {
	return Statement{Kind: StmtShowTagValues, Query: Query{Measurement: measurement}, Target: key}
}

// QueryStrings runs one statement through a querier and returns column col
// of every result series as strings — the shape of the SHOW metadata
// statements (measurement names, field keys, tag values).
func QueryStrings(ctx context.Context, qr Querier, db string, st Statement, col int) ([]string, error) {
	per, err := QueryStringsBatch(ctx, qr, db, []Statement{st}, col)
	if err != nil {
		return nil, err
	}
	return per[0], nil
}

// QueryStringsBatch runs several statements in ONE request — one HTTP
// round trip against a remote querier — and returns column col of each
// statement's result series, indexed like stmts. The dashboard agent uses
// it to batch its per-measurement metadata discovery.
func QueryStringsBatch(ctx context.Context, qr Querier, db string, stmts []Statement, col int) ([][]string, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	resp, err := qr.Query(ctx, Request{Database: db, Statements: stmts})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(stmts) {
		return nil, fmt.Errorf("tsdb: %d statements produced %d results", len(stmts), len(resp.Results))
	}
	out := make([][]string, len(resp.Results))
	for i, res := range resp.Results {
		for _, s := range res.Series {
			for _, row := range s.Values {
				if col < len(row) {
					if v, ok := row[col].(string); ok {
						out[i] = append(out[i], v)
					}
				}
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Canonical InfluxQL serialization: the wire form of a pre-parsed statement.

// Text renders the statement as canonical InfluxQL. Parsing the result
// yields an equivalent statement, so a pre-built AST can cross the HTTP
// boundary losslessly (Client serializes Request.Statements with it).
func (st Statement) Text() string {
	var b strings.Builder
	switch st.Kind {
	case StmtSelect, StmtExplainAnalyze:
		if st.Kind == StmtExplainAnalyze {
			b.WriteString("EXPLAIN ANALYZE ")
		}
		b.WriteString("SELECT ")
		if len(st.Query.Cols) == 0 {
			b.WriteByte('*')
		}
		for i, c := range st.Query.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			field := identText(c.Field)
			if c.Field == "*" {
				field = "*" // every field, not an identifier
			}
			switch c.Agg {
			case AggNone:
				b.WriteString(field)
			case AggPercentile:
				fmt.Fprintf(&b, "percentile(%s, %s)", field,
					strconv.FormatFloat(c.Pct, 'f', -1, 64))
			default:
				fmt.Fprintf(&b, "%s(%s)", string(c.Agg), field)
			}
		}
		b.WriteString(" FROM ")
		b.WriteString(identText(st.Query.Measurement))
		var conds []string
		if !st.Query.Start.IsZero() {
			conds = append(conds, "time >= "+strconv.FormatInt(st.Query.Start.UnixNano(), 10))
		}
		if !st.Query.End.IsZero() {
			conds = append(conds, "time <= "+strconv.FormatInt(st.Query.End.UnixNano(), 10))
		}
		tags := make([]string, 0, len(st.Query.Filter))
		for k := range st.Query.Filter {
			tags = append(tags, k)
		}
		sort.Strings(tags)
		for _, k := range tags {
			conds = append(conds, identText(k)+" = "+stringText(st.Query.Filter[k]))
		}
		if len(conds) > 0 {
			b.WriteString(" WHERE ")
			b.WriteString(strings.Join(conds, " AND "))
		}
		var groups []string
		if every := st.Query.Every; every > 0 {
			// Whole seconds print as seconds, the form people write.
			n, unit := every.Nanoseconds(), "ns"
			if every%time.Second == 0 {
				n, unit = int64(every/time.Second), "s"
			}
			groups = append(groups, "time("+strconv.FormatInt(n, 10)+unit+")")
		}
		for _, t := range st.Query.GroupByTags {
			if t == "*" {
				groups = append(groups, "*")
				continue
			}
			groups = append(groups, identText(t))
		}
		if len(groups) > 0 {
			b.WriteString(" GROUP BY ")
			b.WriteString(strings.Join(groups, ", "))
		}
		if st.Query.Limit > 0 {
			b.WriteString(" LIMIT ")
			b.WriteString(strconv.Itoa(st.Query.Limit))
		}
	case StmtShowDatabases:
		b.WriteString("SHOW DATABASES")
	case StmtShowMeasurements:
		b.WriteString("SHOW MEASUREMENTS")
	case StmtShowFieldKeys:
		b.WriteString("SHOW FIELD KEYS")
		if st.Query.Measurement != "" {
			b.WriteString(" FROM ")
			b.WriteString(identText(st.Query.Measurement))
		}
	case StmtShowTagKeys:
		b.WriteString("SHOW TAG KEYS")
		if st.Query.Measurement != "" {
			b.WriteString(" FROM ")
			b.WriteString(identText(st.Query.Measurement))
		}
	case StmtShowTagValues:
		b.WriteString("SHOW TAG VALUES")
		if st.Query.Measurement != "" {
			b.WriteString(" FROM ")
			b.WriteString(identText(st.Query.Measurement))
		}
		b.WriteString(" WITH KEY = ")
		b.WriteString(identText(st.Target))
	case StmtCreateDatabase:
		b.WriteString("CREATE DATABASE ")
		b.WriteString(identText(st.Target))
	case StmtDropDatabase:
		b.WriteString("DROP DATABASE ")
		b.WriteString(identText(st.Target))
	}
	return b.String()
}

// identText renders an identifier, double-quoting (with backslash escapes
// for '"' and '\') when it contains bytes outside the bare-identifier
// alphabet of the lexer or would lex as a number (leading digit or '-').
func identText(s string) string {
	if s == "" {
		return `""`
	}
	bare := s[0] != '-' && (s[0] < '0' || s[0] > '9')
	for i := 0; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			bare = false
			break
		}
	}
	if bare {
		return s
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// stringText renders a single-quoted string literal with escaping.
func stringText(s string) string {
	var b strings.Builder
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('\'')
	return b.String()
}

// textOf joins statements into one ';'-separated InfluxQL script.
func textOf(stmts []Statement) string {
	parts := make([]string, len(stmts))
	for i, st := range stmts {
		parts[i] = st.Text()
	}
	return strings.Join(parts, "; ")
}

// timeUnits maps the InfluxDB time-unit spellings — the /write precision
// and the /query epoch parameter share them — to nanoseconds per unit.
// What an empty parameter means is each caller's own.
var timeUnits = map[string]int64{
	"ns": 1, "n": 1,
	"u": int64(time.Microsecond), "µ": int64(time.Microsecond),
	"ms": int64(time.Millisecond),
	"s":  int64(time.Second),
	"m":  int64(time.Minute),
	"h":  int64(time.Hour),
}

// epochMult returns the nanoseconds-per-unit divisor of an epoch parameter
// value; "" means RFC3339 string timestamps.
func epochMult(epoch string) (int64, error) {
	if epoch == "" {
		return 0, nil
	}
	if mult, ok := timeUnits[epoch]; ok {
		return mult, nil
	}
	return 0, fmt.Errorf("tsdb: invalid epoch %q", epoch)
}
