package tsdb

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/lineproto"
)

// This file implements the InfluxQL subset that the LMS components issue:
//
//	SELECT *|<field>|<agg>(<field>|*)[, ...] FROM <measurement>
//	    [WHERE time >= <t> [AND time <= <t>] [AND <tag> = '<v>']...]
//	    [GROUP BY time(<interval>)[, <tag>...]] [LIMIT <n>]
//	SHOW DATABASES
//	SHOW MEASUREMENTS
//	SHOW FIELD KEYS FROM <measurement>
//	SHOW TAG KEYS FROM <measurement>
//	SHOW TAG VALUES [FROM <measurement>] WITH KEY = <key>
//	CREATE DATABASE <name>
//	DROP DATABASE <name>
//	EXPLAIN ANALYZE SELECT ...
//
// Timestamps accept bare integers with an optional unit suffix
// (ns, u, ms, s, m, h; default ns) or RFC3339 strings.

// Statement is a parsed InfluxQL statement.
type Statement struct {
	Kind   StmtKind
	Query  Query  // for SELECT, projection included (Query.Cols)
	Target string // database name / measurement / tag key, by kind
}

// StmtKind discriminates statement types.
type StmtKind int

// Statement kinds.
const (
	StmtSelect StmtKind = iota
	StmtShowDatabases
	StmtShowMeasurements
	StmtShowFieldKeys
	StmtShowTagKeys
	StmtShowTagValues
	StmtCreateDatabase
	StmtDropDatabase
	StmtExplainAnalyze
)

type lexer struct {
	s   string
	pos int
}

type token struct {
	kind tokenKind
	text string
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // single-quoted
	tokNumber
	tokPunct // ( ) , ; = * < > <= >=
	tokDuration
)

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.s) && unicode.IsSpace(rune(lx.s[lx.pos])) {
		lx.pos++
	}
	if lx.pos >= len(lx.s) {
		return token{kind: tokEOF}, nil
	}
	c := lx.s[lx.pos]
	switch {
	case c == '\'':
		lx.pos++
		var b strings.Builder
		for lx.pos < len(lx.s) && lx.s[lx.pos] != '\'' {
			if lx.s[lx.pos] == '\\' && lx.pos+1 < len(lx.s) {
				lx.pos++
			}
			b.WriteByte(lx.s[lx.pos])
			lx.pos++
		}
		if lx.pos >= len(lx.s) {
			return token{}, fmt.Errorf("unterminated string")
		}
		lx.pos++
		return token{kind: tokString, text: b.String()}, nil
	case c == '"':
		// Quoted identifier; backslash escapes the quote (and itself), so
		// every identifier the line protocol permits can be written.
		lx.pos++
		var b strings.Builder
		for lx.pos < len(lx.s) && lx.s[lx.pos] != '"' {
			if lx.s[lx.pos] == '\\' && lx.pos+1 < len(lx.s) {
				lx.pos++
			}
			b.WriteByte(lx.s[lx.pos])
			lx.pos++
		}
		if lx.pos >= len(lx.s) {
			return token{}, fmt.Errorf("unterminated identifier")
		}
		lx.pos++
		return token{kind: tokIdent, text: b.String()}, nil
	case c == '<' || c == '>':
		start := lx.pos
		lx.pos++
		if lx.pos < len(lx.s) && lx.s[lx.pos] == '=' {
			lx.pos++
		}
		return token{kind: tokPunct, text: lx.s[start:lx.pos]}, nil
	case strings.IndexByte("(),;=*", c) >= 0:
		lx.pos++
		return token{kind: tokPunct, text: string(c)}, nil
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		start := lx.pos
		lx.pos++
		for lx.pos < len(lx.s) && (lx.s[lx.pos] >= '0' && lx.s[lx.pos] <= '9' || lx.s[lx.pos] == '.') {
			lx.pos++
		}
		numEnd := lx.pos
		for lx.pos < len(lx.s) && isIdentChar(lx.s[lx.pos]) {
			lx.pos++
		}
		if lx.pos > numEnd {
			return token{kind: tokDuration, text: lx.s[start:lx.pos]}, nil
		}
		return token{kind: tokNumber, text: lx.s[start:numEnd]}, nil
	case isIdentChar(c):
		start := lx.pos
		for lx.pos < len(lx.s) && isIdentChar(lx.s[lx.pos]) {
			lx.pos++
		}
		return token{kind: tokIdent, text: lx.s[start:lx.pos]}, nil
	default:
		return token{}, fmt.Errorf("unexpected byte %q", c)
	}
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c == '/' || c == ':'
}

type parser struct {
	lx   *lexer
	tok  token
	peek *token
}

func newParser(s string) (*parser, error) {
	p := &parser{lx: &lexer{s: s}}
	return p, p.advance()
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peekTok() (token, error) {
	if p.peek == nil {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *parser) keyword(words ...string) bool {
	if p.tok.kind != tokIdent {
		return false
	}
	for _, w := range words {
		if strings.EqualFold(p.tok.text, w) {
			return true
		}
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return fmt.Errorf("expected %q, got %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, got %q", p.tok.text)
	}
	s := p.tok.text
	return s, p.advance()
}

// ParseQuery parses one or more ';'-separated statements.
func ParseQuery(s string) ([]Statement, error) {
	p, err := newParser(s)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		for p.tok.kind == tokPunct && p.tok.text == ";" {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind == tokEOF {
			break
		}
		st, err := p.parseStatement()
		if err == nil {
			err = st.Query.validate()
		}
		if err != nil {
			return nil, fmt.Errorf("tsdb: parse %q: %w", s, err)
		}
		stmts = append(stmts, st)
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("tsdb: empty query")
	}
	return stmts, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.keyword("SELECT"):
		return p.parseSelect()
	case p.keyword("SHOW"):
		return p.parseShow()
	case p.keyword("EXPLAIN"):
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		if !p.keyword("ANALYZE") {
			return Statement{}, fmt.Errorf("expected ANALYZE after EXPLAIN")
		}
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		if !p.keyword("SELECT") {
			return Statement{}, fmt.Errorf("expected SELECT after EXPLAIN ANALYZE")
		}
		st, err := p.parseSelect()
		if err != nil {
			return Statement{}, err
		}
		st.Kind = StmtExplainAnalyze
		return st, nil
	case p.keyword("CREATE"):
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		if !p.keyword("DATABASE") {
			return Statement{}, fmt.Errorf("expected DATABASE after CREATE")
		}
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return Statement{}, err
		}
		return Statement{Kind: StmtCreateDatabase, Target: name}, nil
	case p.keyword("DROP"):
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		if !p.keyword("DATABASE") {
			return Statement{}, fmt.Errorf("expected DATABASE after DROP")
		}
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return Statement{}, err
		}
		return Statement{Kind: StmtDropDatabase, Target: name}, nil
	default:
		return Statement{}, fmt.Errorf("unknown statement start %q", p.tok.text)
	}
}

func (p *parser) parseShow() (Statement, error) {
	if err := p.advance(); err != nil {
		return Statement{}, err
	}
	switch {
	case p.keyword("DATABASES"):
		return Statement{Kind: StmtShowDatabases}, p.advance()
	case p.keyword("MEASUREMENTS"):
		return Statement{Kind: StmtShowMeasurements}, p.advance()
	case p.keyword("FIELD"), p.keyword("TAG"):
		isField := p.keyword("FIELD")
		if err := p.advance(); err != nil {
			return Statement{}, err
		}
		switch {
		case p.keyword("KEYS"):
			if err := p.advance(); err != nil {
				return Statement{}, err
			}
			st := Statement{Kind: StmtShowTagKeys}
			if isField {
				st.Kind = StmtShowFieldKeys
			}
			if p.keyword("FROM") {
				if err := p.advance(); err != nil {
					return Statement{}, err
				}
				m, err := p.expectIdent()
				if err != nil {
					return Statement{}, err
				}
				st.Query.Measurement = m
			}
			return st, nil
		case p.keyword("VALUES") && !isField:
			if err := p.advance(); err != nil {
				return Statement{}, err
			}
			st := Statement{Kind: StmtShowTagValues}
			if p.keyword("FROM") {
				if err := p.advance(); err != nil {
					return Statement{}, err
				}
				m, err := p.expectIdent()
				if err != nil {
					return Statement{}, err
				}
				st.Query.Measurement = m
			}
			if !p.keyword("WITH") {
				return Statement{}, fmt.Errorf("expected WITH KEY in SHOW TAG VALUES")
			}
			if err := p.advance(); err != nil {
				return Statement{}, err
			}
			if !p.keyword("KEY") {
				return Statement{}, fmt.Errorf("expected KEY after WITH")
			}
			if err := p.advance(); err != nil {
				return Statement{}, err
			}
			if err := p.expectPunct("="); err != nil {
				return Statement{}, err
			}
			key := p.tok.text
			if p.tok.kind != tokIdent && p.tok.kind != tokString {
				return Statement{}, fmt.Errorf("expected tag key, got %q", p.tok.text)
			}
			st.Target = key
			return st, p.advance()
		}
	}
	return Statement{}, fmt.Errorf("unsupported SHOW form near %q", p.tok.text)
}

func (p *parser) parseSelect() (Statement, error) {
	st := Statement{Kind: StmtSelect}
	if err := p.advance(); err != nil {
		return st, err
	}
	// Column list. A bare "*" and the field of agg(*) are the AggCol field
	// "*"; a lone "*" is the empty list, the one spelling of SELECT *.
	for {
		col, err := p.parseColumn()
		if err != nil {
			return st, err
		}
		st.Query.Cols = append(st.Query.Cols, col)
		if p.tok.kind != tokPunct || p.tok.text != "," {
			break
		}
		if err := p.advance(); err != nil {
			return st, err
		}
	}
	if len(st.Query.Cols) == 1 && st.Query.Cols[0] == (AggCol{Field: "*"}) {
		st.Query.Cols = nil
	}
	if !p.keyword("FROM") {
		return st, fmt.Errorf("expected FROM, got %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return st, err
	}
	m, err := p.expectIdent()
	if err != nil {
		return st, err
	}
	st.Query.Measurement = m

	if p.keyword("WHERE") {
		if err := p.advance(); err != nil {
			return st, err
		}
		for {
			if err := p.parseCondition(&st); err != nil {
				return st, err
			}
			if p.keyword("AND") {
				if err := p.advance(); err != nil {
					return st, err
				}
				continue
			}
			break
		}
	}
	if p.keyword("GROUP") {
		if err := p.advance(); err != nil {
			return st, err
		}
		if !p.keyword("BY") {
			return st, fmt.Errorf("expected BY after GROUP")
		}
		if err := p.advance(); err != nil {
			return st, err
		}
		for {
			switch {
			case p.keyword("time"):
				if err := p.advance(); err != nil {
					return st, err
				}
				if err := p.expectPunct("("); err != nil {
					return st, err
				}
				if p.tok.kind != tokDuration && p.tok.kind != tokNumber {
					return st, fmt.Errorf("expected duration in GROUP BY time(), got %q", p.tok.text)
				}
				d, err := parseDuration(p.tok.text)
				if err != nil {
					return st, err
				}
				if d <= 0 {
					return st, fmt.Errorf("GROUP BY time() interval %q is not positive", p.tok.text)
				}
				st.Query.Every = d
				if err := p.advance(); err != nil {
					return st, err
				}
				if err := p.expectPunct(")"); err != nil {
					return st, err
				}
			case p.tok.kind == tokPunct && p.tok.text == "*":
				// GROUP BY * — group by every tag; resolved at execution.
				st.Query.GroupByTags = []string{"*"}
				if err := p.advance(); err != nil {
					return st, err
				}
			default:
				tag, err := p.expectIdent()
				if err != nil {
					return st, err
				}
				st.Query.GroupByTags = append(st.Query.GroupByTags, tag)
			}
			if p.tok.kind == tokPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return st, err
				}
				continue
			}
			break
		}
	}
	if p.keyword("LIMIT") {
		if err := p.advance(); err != nil {
			return st, err
		}
		if p.tok.kind != tokNumber {
			return st, fmt.Errorf("expected number after LIMIT")
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return st, fmt.Errorf("bad LIMIT %q", p.tok.text)
		}
		st.Query.Limit = n
		if err := p.advance(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// parseColumn parses one entry of the SELECT list: *, <field>,
// <agg>(<field>|*) or percentile(<field>|*, <p>).
func (p *parser) parseColumn() (AggCol, error) {
	fieldOrStar := func() (string, error) {
		if p.tok.kind == tokPunct && p.tok.text == "*" {
			return "*", p.advance()
		}
		return p.expectIdent()
	}
	name, err := fieldOrStar()
	if err != nil {
		return AggCol{}, err
	}
	if name == "*" || p.tok.kind != tokPunct || p.tok.text != "(" {
		return AggCol{Field: name}, nil
	}
	fn := strings.ToLower(name)
	if !ValidAgg(fn) {
		return AggCol{}, fmt.Errorf("unknown function %q", name)
	}
	if err := p.advance(); err != nil {
		return AggCol{}, err
	}
	col := AggCol{Agg: AggFunc(fn)}
	if col.Field, err = fieldOrStar(); err != nil {
		return AggCol{}, err
	}
	if col.Agg == AggPercentile {
		if err := p.expectPunct(","); err != nil {
			return AggCol{}, err
		}
		if p.tok.kind != tokNumber {
			return AggCol{}, fmt.Errorf("percentile needs a numeric argument")
		}
		if col.Pct, err = strconv.ParseFloat(p.tok.text, 64); err != nil {
			return AggCol{}, err
		}
		if err := p.advance(); err != nil {
			return AggCol{}, err
		}
	}
	return col, p.expectPunct(")")
}

func (p *parser) parseCondition(st *Statement) error {
	if p.keyword("time") {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokPunct {
			return fmt.Errorf("expected comparison operator after time")
		}
		op := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		t, err := p.parseTimeValue()
		if err != nil {
			return err
		}
		// Query.Start/End are inclusive, so the strict operators move the
		// bound by the clock's resolution, one nanosecond.
		switch op {
		case ">":
			st.Query.Start = t.Add(1)
		case ">=":
			st.Query.Start = t
		case "<":
			st.Query.End = t.Add(-1)
		case "<=":
			st.Query.End = t
		case "=":
			st.Query.Start, st.Query.End = t, t
		default:
			return fmt.Errorf("unsupported time operator %q", op)
		}
		// The engine compares int64 nanoseconds (rangeNS); a bound it cannot
		// hold would wrap around to the other end of time.
		for _, b := range []time.Time{st.Query.Start, st.Query.End} {
			if !b.IsZero() && !time.Unix(0, b.UnixNano()).Equal(b) {
				return fmt.Errorf("time bound %s outside the nanosecond clock", b.Format(time.RFC3339Nano))
			}
		}
		return nil
	}
	key, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	if p.tok.kind != tokString {
		return fmt.Errorf("tag comparison needs a quoted string, got %q", p.tok.text)
	}
	if _, dup := st.Query.Filter[key]; dup {
		// The filter holds one value per key, and so does the printed
		// statement the cache keys on: a second condition would replace
		// the first rather than narrow it.
		return fmt.Errorf("tag key %q repeated in WHERE", key)
	}
	if st.Query.Filter == nil {
		st.Query.Filter = TagFilter{}
	}
	st.Query.Filter[key] = p.tok.text
	return p.advance()
}

func (p *parser) parseTimeValue() (time.Time, error) {
	switch p.tok.kind {
	case tokNumber:
		ns, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return time.Time{}, err
		}
		return time.Unix(0, ns).UTC(), p.advance()
	case tokDuration:
		d, err := parseDuration(p.tok.text)
		if err != nil {
			return time.Time{}, err
		}
		return time.Unix(0, d.Nanoseconds()).UTC(), p.advance()
	case tokString:
		t, err := time.Parse(time.RFC3339Nano, p.tok.text)
		if err != nil {
			t, err = time.Parse("2006-01-02 15:04:05", p.tok.text)
			if err != nil {
				return time.Time{}, fmt.Errorf("bad time literal %q", p.tok.text)
			}
		}
		return t.UTC(), p.advance()
	default:
		return time.Time{}, fmt.Errorf("expected time value, got %q", p.tok.text)
	}
}

// parseDuration understands InfluxQL duration literals: 10s, 5m, 1h, 500ms,
// 100u, 42ns and bare integers (nanoseconds).
func parseDuration(s string) (time.Duration, error) {
	i := 0
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.' || s[i] == '-' || s[i] == '+') {
		i++
	}
	numStr, unit := s[:i], s[i:]
	n, err := strconv.ParseFloat(numStr, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	var mult time.Duration
	switch unit {
	case "", "ns":
		mult = time.Nanosecond
	case "u", "µ", "us":
		mult = time.Microsecond
	case "ms":
		mult = time.Millisecond
	case "s":
		mult = time.Second
	case "m":
		mult = time.Minute
	case "h":
		mult = time.Hour
	case "d":
		mult = 24 * time.Hour
	case "w":
		mult = 7 * 24 * time.Hour
	default:
		return 0, fmt.Errorf("bad duration unit %q", unit)
	}
	return time.Duration(n * float64(mult)), nil
}

// ExecuteContext runs a parsed statement against the store using dbName as
// the current database ("" allowed for SHOW DATABASES / CREATE / DROP).
// epoch selects integer SELECT timestamps in the given precision ("ns",
// "u", "ms", "s", "m", "h"); "" renders RFC3339 strings. The context is
// observed by the Select engine before each result group, so a caller
// that goes away (HTTP client disconnect, cancelled dashboard refresh)
// stops burning CPU on an answer nobody reads.
func ExecuteContext(ctx context.Context, store *Store, dbName string, st Statement, epoch string) (ExecResult, error) {
	switch st.Kind {
	case StmtCreateDatabase:
		// On a durable store a failed durable open must surface, not
		// silently hand back a memory-only database.
		if _, err := store.OpenDatabase(st.Target); err != nil {
			return ExecResult{}, err
		}
		return ExecResult{}, nil
	case StmtDropDatabase:
		store.DropDatabase(st.Target)
		return ExecResult{}, nil
	case StmtShowDatabases:
		res := ExecResult{Series: []ResultSeries{{Name: "databases", Columns: []string{"name"}}}}
		for _, n := range store.Databases() {
			res.Series[0].Values = append(res.Series[0].Values, []interface{}{n})
		}
		return res, nil
	}
	db := store.DB(dbName)
	if db == nil {
		return ExecResult{}, ErrNoDatabase
	}
	switch st.Kind {
	case StmtShowMeasurements:
		res := ExecResult{Series: []ResultSeries{{Name: "measurements", Columns: []string{"name"}}}}
		for _, n := range db.Measurements() {
			res.Series[0].Values = append(res.Series[0].Values, []interface{}{n})
		}
		return res, nil
	case StmtShowFieldKeys:
		res := ExecResult{Series: []ResultSeries{{Name: st.Query.Measurement, Columns: []string{"fieldKey"}}}}
		for _, n := range db.FieldKeys(st.Query.Measurement) {
			res.Series[0].Values = append(res.Series[0].Values, []interface{}{n})
		}
		return res, nil
	case StmtShowTagKeys:
		res := ExecResult{Series: []ResultSeries{{Name: st.Query.Measurement, Columns: []string{"tagKey"}}}}
		for _, n := range db.TagKeys(st.Query.Measurement) {
			res.Series[0].Values = append(res.Series[0].Values, []interface{}{n})
		}
		return res, nil
	case StmtShowTagValues:
		res := ExecResult{Series: []ResultSeries{{Name: st.Query.Measurement, Columns: []string{"key", "value"}}}}
		for _, v := range db.TagValues(st.Query.Measurement, st.Target) {
			res.Series[0].Values = append(res.Series[0].Values, []interface{}{st.Target, v})
		}
		return res, nil
	case StmtSelect:
		return executeSelect(ctx, db, st, epoch)
	case StmtExplainAnalyze:
		return executeExplainAnalyze(ctx, db, st, epoch)
	default:
		return ExecResult{}, fmt.Errorf("tsdb: unsupported statement kind %d", st.Kind)
	}
}

// ExecResult mirrors one entry of the InfluxDB JSON "results" array.
type ExecResult struct {
	Series []ResultSeries `json:"series,omitempty"`
	Err    string         `json:"error,omitempty"`
}

// ResultSeries is the JSON series representation: a name, optional tags, a
// column list (first column "time" for SELECTs) and value rows.
type ResultSeries struct {
	Name    string            `json:"name"`
	Tags    map[string]string `json:"tags,omitempty"`
	Columns []string          `json:"columns"`
	Values  [][]interface{}   `json:"values"`
}

func executeSelect(ctx context.Context, db *DB, st Statement, epoch string) (ExecResult, error) {
	epochDiv, err := epochMult(epoch)
	if err != nil {
		return ExecResult{}, err
	}
	series, err := db.SelectContext(ctx, st.Query)
	if err == ErrNoMeasurement {
		return ExecResult{}, nil // InfluxDB returns an empty result here
	}
	if err != nil {
		return ExecResult{}, err
	}
	res := ExecResult{}
	for _, s := range series {
		rs := ResultSeries{Name: s.Name, Columns: append([]string{"time"}, s.Columns...)}
		if len(s.Tags) > 0 {
			rs.Tags = s.Tags
		}
		for _, r := range s.Rows {
			vals := make([]interface{}, 0, len(r.Values)+1)
			if epochDiv > 0 {
				vals = append(vals, r.Time.UnixNano()/epochDiv)
			} else {
				vals = append(vals, r.Time.UTC().Format(time.RFC3339Nano))
			}
			for _, v := range r.Values {
				if v == nil {
					vals = append(vals, nil)
					continue
				}
				switch v.Kind() {
				case lineproto.KindInt:
					vals = append(vals, v.IntVal())
				case lineproto.KindBool:
					vals = append(vals, v.BoolVal())
				case lineproto.KindString:
					vals = append(vals, v.StringVal())
				default:
					vals = append(vals, v.FloatVal())
				}
			}
			rs.Values = append(rs.Values, vals)
		}
		res.Series = append(res.Series, rs)
	}
	return res, nil
}

// ExplainSeriesName is the result series carrying the execution profile of
// an EXPLAIN ANALYZE statement (DESIGN.md §14). The coordinator of a
// clustered query appends its own ExplainClusterSeriesName series with the
// routing profile; both prefix-match "explain_analyze" so clients can strip
// every profile series to recover the underlying SELECT's rows.
const (
	ExplainSeriesName        = "explain_analyze"
	ExplainClusterSeriesName = "explain_analyze_cluster"
)

// executeExplainAnalyze runs the wrapped SELECT with a profile attached and
// appends the profile as one extra series. The SELECT's own series are
// rendered exactly as a bare SELECT would render them.
func executeExplainAnalyze(ctx context.Context, db *DB, st Statement, epoch string) (ExecResult, error) {
	prof := &selectProf{}
	res, err := executeSelect(withProf(ctx, prof), db, st, epoch)
	if err != nil {
		return ExecResult{}, err
	}
	res.Series = append(res.Series, prof.resultSeries())
	return res, nil
}

// resultSeries renders the profile as a metric/value series.
func (p *selectProf) resultSeries() ResultSeries {
	cache := "miss"
	if p.CacheHit {
		cache = "hit"
	}
	return ResultSeries{
		Name:    ExplainSeriesName,
		Columns: []string{"metric", "value"},
		Values: [][]interface{}{
			{"shards_visited", p.ShardsVisited},
			{"series_scanned", p.SeriesScanned},
			{"runs_scanned", p.RunsScanned},
			{"runs_pruned", p.RunsPruned},
			{"chunks_decoded", p.ChunksDecoded},
			{"heads_decoded", p.HeadsDecoded},
			{"points_examined", p.PointsExamined},
			{"cache", cache},
			{"phase_cache_lookup_ns", p.phaseNS[phaseCache]},
			{"phase_snapshot_ns", p.phaseNS[phaseSnapshot]},
			{"phase_execute_ns", p.phaseNS[phaseExecute]},
			{"phase_total_ns", p.phaseNS[phaseTotal]},
		},
	}
}
