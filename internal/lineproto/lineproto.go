// Package lineproto implements the InfluxDB line protocol used as the single
// wire format of the LIKWID Monitoring Stack (LMS).
//
// The paper (Sect. III-A) chooses the line protocol because it separates
// metric values from metric tags, supports concatenating multiple lines for
// batched transmission, and stays human-readable for debugging. This package
// provides a faithful encoder and parser for the protocol:
//
//	measurement[,tagkey=tagvalue...] fieldkey=fieldvalue[,...] [timestamp]
//
// Field values may be floats (default), integers ("i" suffix), booleans, or
// double-quoted strings (used by LMS for events). Timestamps are integer
// nanoseconds since the Unix epoch.
package lineproto

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ValueKind enumerates the value types representable in a line-protocol field.
type ValueKind uint8

// The four field value kinds of the line protocol.
const (
	KindFloat ValueKind = iota
	KindInt
	KindBool
	KindString
)

// String returns the lowercase name of the kind.
func (k ValueKind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a dynamically typed field value. The zero Value is the float 0.
type Value struct {
	kind ValueKind
	num  float64 // float, int (as float bits via math trick avoided: store separately), bool (0/1)
	i    int64
	str  string
}

// Float returns a float-typed Value.
func Float(f float64) Value { return Value{kind: KindFloat, num: f} }

// Int returns an integer-typed Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Bool returns a boolean-typed Value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// String returns a string-typed Value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Kind reports the value's type.
func (v Value) Kind() ValueKind { return v.kind }

// FloatVal returns the value as a float64. Integers and booleans are
// converted; strings yield 0.
func (v Value) FloatVal() float64 {
	switch v.kind {
	case KindFloat:
		return v.num
	case KindInt:
		return float64(v.i)
	case KindBool:
		return float64(v.i)
	default:
		return 0
	}
}

// IntVal returns the value as an int64, truncating floats.
func (v Value) IntVal() int64 {
	switch v.kind {
	case KindFloat:
		return int64(v.num)
	case KindInt, KindBool:
		return v.i
	default:
		return 0
	}
}

// BoolVal returns the value as a bool (non-zero numbers are true).
func (v Value) BoolVal() bool {
	switch v.kind {
	case KindString:
		return v.str == "true"
	default:
		return v.i != 0 || v.num != 0
	}
}

// StringVal returns the string payload for string values and a formatted
// representation for the numeric kinds.
func (v Value) StringVal() string {
	switch v.kind {
	case KindString:
		return v.str
	case KindFloat:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// Equal reports deep equality of two values, treating NaN floats as equal so
// round-trip properties hold.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat:
		if math.IsNaN(v.num) && math.IsNaN(o.num) {
			return true
		}
		return v.num == o.num
	case KindInt, KindBool:
		return v.i == o.i
	case KindString:
		return v.str == o.str
	default:
		return false
	}
}

// Point is one decoded line: a measurement with tags, fields and an optional
// timestamp. A zero Time means "no timestamp supplied" (the receiver assigns
// arrival time, mirroring InfluxDB behaviour).
type Point struct {
	Measurement string
	Tags        map[string]string
	Fields      map[string]Value
	Time        time.Time
}

// Field is one field key/value pair of a point, produced by AppendFields.
type Field struct {
	Key   string
	Value Value
}

// AppendFields appends the point's fields to dst, ordered by key, and
// returns the extended slice. It is the batch-append fast path feeding
// columnar consumers (tsdb run builders): callers reuse dst as a scratch
// buffer across points, so iterating a whole batch allocates nothing and
// sees every point's fields in one deterministic order regardless of map
// iteration. Field counts are small, so an insertion sort beats building
// and sorting a key slice.
func (p Point) AppendFields(dst []Field) []Field {
	start := len(dst)
	for k, v := range p.Fields {
		dst = append(dst, Field{Key: k, Value: v})
		for i := len(dst) - 1; i > start && dst[i-1].Key > dst[i].Key; i-- {
			dst[i-1], dst[i] = dst[i], dst[i-1]
		}
	}
	return dst
}

// Equal reports semantic equality of two points (map order irrelevant,
// timestamps compared at nanosecond resolution).
func (p Point) Equal(o Point) bool {
	if p.Measurement != o.Measurement || !p.Time.Equal(o.Time) {
		return false
	}
	if len(p.Tags) != len(o.Tags) || len(p.Fields) != len(o.Fields) {
		return false
	}
	for k, v := range p.Tags {
		if ov, ok := o.Tags[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range p.Fields {
		if ov, ok := o.Fields[k]; !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Validate checks that the point can be encoded: non-empty measurement, at
// least one field, and no empty tag/field keys or tag values.
func (p Point) Validate() error {
	if p.Measurement == "" {
		return errors.New("lineproto: empty measurement")
	}
	if len(p.Fields) == 0 {
		return fmt.Errorf("lineproto: point %q has no fields", p.Measurement)
	}
	for k, v := range p.Tags {
		if k == "" {
			return fmt.Errorf("lineproto: point %q has empty tag key", p.Measurement)
		}
		if v == "" {
			return fmt.Errorf("lineproto: point %q tag %q has empty value", p.Measurement, k)
		}
	}
	for k := range p.Fields {
		if k == "" {
			return fmt.Errorf("lineproto: point %q has empty field key", p.Measurement)
		}
	}
	return nil
}

// escape appends s to dst, backslash-escaping every byte contained in chars.
func escape(dst []byte, s, chars string) []byte {
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(chars, s[i]) >= 0 {
			dst = append(dst, '\\')
		}
		dst = append(dst, s[i])
	}
	return dst
}

const (
	measurementEscapes = ", \\"
	keyEscapes         = ",= \\"
)

// AppendPoint appends the canonical single-line encoding of p to dst and
// returns the extended slice. Tags and fields are emitted in sorted key order
// so the encoding is deterministic. It returns an error for invalid points.
func AppendPoint(dst []byte, p Point) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	dst = escape(dst, p.Measurement, measurementEscapes)
	if len(p.Tags) > 0 {
		keys := make([]string, 0, len(p.Tags))
		for k := range p.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = append(dst, ',')
			dst = escape(dst, k, keyEscapes)
			dst = append(dst, '=')
			dst = escape(dst, p.Tags[k], keyEscapes)
		}
	}
	dst = append(dst, ' ')
	fkeys := make([]string, 0, len(p.Fields))
	for k := range p.Fields {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	for i, k := range fkeys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = escape(dst, k, keyEscapes)
		dst = append(dst, '=')
		dst = appendValue(dst, p.Fields[k])
	}
	if !p.Time.IsZero() {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, p.Time.UnixNano(), 10)
	}
	return dst, nil
}

func appendValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindFloat:
		return strconv.AppendFloat(dst, v.num, 'g', -1, 64)
	case KindInt:
		dst = strconv.AppendInt(dst, v.i, 10)
		return append(dst, 'i')
	case KindBool:
		if v.i != 0 {
			return append(dst, 't', 'r', 'u', 'e')
		}
		return append(dst, 'f', 'a', 'l', 's', 'e')
	case KindString:
		dst = append(dst, '"')
		for i := 0; i < len(v.str); i++ {
			if v.str[i] == '"' || v.str[i] == '\\' {
				dst = append(dst, '\\')
			}
			dst = append(dst, v.str[i])
		}
		return append(dst, '"')
	default:
		return dst
	}
}

// Encode renders a batch of points, one line each, separated by '\n'.
// Batched transmission is the normal LMS transport mode (Sect. III-A).
func Encode(points []Point) ([]byte, error) {
	var dst []byte
	for i, p := range points {
		start := len(dst)
		var err error
		dst, err = AppendPoint(dst, p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		dst = append(dst, '\n')
		// Lines of one batch are about the same length: size the rest of the
		// buffer from the line just written instead of doubling up to it.
		if rest := (len(points) - i - 1) * (len(dst) - start); rest > cap(dst)-len(dst) {
			dst = slices.Grow(dst, rest+rest/8)
		}
	}
	return dst, nil
}

// EncodePoint renders a single point without a trailing newline.
func EncodePoint(p Point) ([]byte, error) {
	return AppendPoint(nil, p)
}

// ParseError describes a syntax error with the offending line number
// (1-based) and a short reason.
type ParseError struct {
	Line   int
	Reason string
	Input  string
}

func (e *ParseError) Error() string {
	in := e.Input
	if len(in) > 80 {
		in = in[:80] + "..."
	}
	return fmt.Sprintf("lineproto: line %d: %s (input %q)", e.Line, e.Reason, in)
}

// Parse decodes a batch of newline-separated lines. Empty lines and lines
// starting with '#' are skipped (comments aid cronjob/curl debugging).
func Parse(data []byte) ([]Point, error) {
	var points []Point
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		if idx := bytes.IndexByte(data, '\n'); idx >= 0 {
			line = data[:idx]
			data = data[idx+1:]
		} else {
			line = data
			data = nil
		}
		line = trimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		p, err := parseLine(string(line))
		if err != nil {
			return nil, &ParseError{Line: lineNo, Reason: err.Error(), Input: string(line)}
		}
		if points == nil {
			// One allocation for the batch: at most one point per remaining line.
			points = make([]Point, 0, 1+bytes.Count(data, []byte{'\n'}))
		}
		points = append(points, p)
	}
	return points, nil
}

// ParseLine decodes a single line.
func ParseLine(line string) (Point, error) {
	p, err := parseLine(strings.TrimSpace(line))
	if err != nil {
		return Point{}, &ParseError{Line: 1, Reason: err.Error(), Input: line}
	}
	return p, nil
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// scanner walks a single line honouring backslash escapes and quoted strings.
type scanner struct {
	s   string
	pos int
}

func (sc *scanner) eof() bool { return sc.pos >= len(sc.s) }

// token consumes until an unescaped byte in stop is found; the stop byte is
// not consumed. A token without a backslash — every token a collector
// emits — is returned as a substring of the line, which Parse already
// copied off the request body; only an escape pays for a builder.
func (sc *scanner) token(stop string) (string, error) {
	start := sc.pos
	for !sc.eof() {
		c := sc.s[sc.pos]
		if c == '\\' {
			return sc.escapedToken(start, stop)
		}
		if strings.IndexByte(stop, c) >= 0 {
			break
		}
		sc.pos++
	}
	return sc.s[start:sc.pos], nil
}

// escapedToken finishes a token whose first backslash sits at sc.pos,
// resolving escapes into a fresh string.
func (sc *scanner) escapedToken(start int, stop string) (string, error) {
	var b strings.Builder
	b.WriteString(sc.s[start:sc.pos])
	for !sc.eof() {
		c := sc.s[sc.pos]
		if c == '\\' {
			if sc.pos+1 >= len(sc.s) {
				return "", errors.New("dangling backslash")
			}
			nxt := sc.s[sc.pos+1]
			if strings.IndexByte(keyEscapes+`"\`, nxt) >= 0 {
				b.WriteByte(nxt)
				sc.pos += 2
				continue
			}
			// Unknown escape: keep backslash literally (InfluxDB behaviour).
			b.WriteByte(c)
			sc.pos++
			continue
		}
		if strings.IndexByte(stop, c) >= 0 {
			break
		}
		b.WriteByte(c)
		sc.pos++
	}
	return b.String(), nil
}

func parseLine(line string) (Point, error) {
	if line == "" {
		return Point{}, errors.New("empty line")
	}
	sc := &scanner{s: line}
	meas, err := sc.token(", ")
	if err != nil {
		return Point{}, err
	}
	if meas == "" {
		return Point{}, errors.New("empty measurement")
	}
	p := Point{Measurement: meas}
	// Tags.
	for !sc.eof() && sc.s[sc.pos] == ',' {
		sc.pos++
		key, err := sc.token("=, ")
		if err != nil {
			return Point{}, err
		}
		if sc.eof() || sc.s[sc.pos] != '=' {
			return Point{}, fmt.Errorf("tag %q missing '='", key)
		}
		sc.pos++
		val, err := sc.token(", ")
		if err != nil {
			return Point{}, err
		}
		if key == "" || val == "" {
			return Point{}, errors.New("empty tag key or value")
		}
		if _, dup := p.Tags[key]; dup {
			// Most often a value with an unescaped ",k=v" in it: keeping
			// either value would store a point nobody sent.
			return Point{}, fmt.Errorf("duplicate tag %q", key)
		}
		if p.Tags == nil {
			// Size the map once: this tag plus one per comma left before the
			// field section (an escaped space only makes that an underestimate).
			rest := sc.s[sc.pos:]
			if sp := strings.IndexByte(rest, ' '); sp >= 0 {
				rest = rest[:sp]
			}
			p.Tags = make(map[string]string, 1+strings.Count(rest, ","))
		}
		p.Tags[key] = val
	}
	if sc.eof() || sc.s[sc.pos] != ' ' {
		return Point{}, errors.New("missing field section")
	}
	for !sc.eof() && sc.s[sc.pos] == ' ' {
		sc.pos++
	}
	// Fields.
	p.Fields = make(map[string]Value, 4)
	for {
		key, err := sc.token("=, ")
		if err != nil {
			return Point{}, err
		}
		if key == "" {
			return Point{}, errors.New("empty field key")
		}
		if sc.eof() || sc.s[sc.pos] != '=' {
			return Point{}, fmt.Errorf("field %q missing '='", key)
		}
		sc.pos++
		val, err := sc.fieldValue()
		if err != nil {
			return Point{}, fmt.Errorf("field %q: %w", key, err)
		}
		if _, dup := p.Fields[key]; dup {
			return Point{}, fmt.Errorf("duplicate field %q", key)
		}
		p.Fields[key] = val
		if sc.eof() {
			return p, nil
		}
		switch sc.s[sc.pos] {
		case ',':
			sc.pos++
		case ' ':
			for !sc.eof() && sc.s[sc.pos] == ' ' {
				sc.pos++
			}
			if sc.eof() {
				return p, nil
			}
			ts := sc.s[sc.pos:]
			ns, err := strconv.ParseInt(ts, 10, 64)
			if err != nil {
				return Point{}, fmt.Errorf("bad timestamp %q", ts)
			}
			p.Time = time.Unix(0, ns).UTC()
			return p, nil
		default:
			return Point{}, fmt.Errorf("unexpected byte %q after field", sc.s[sc.pos])
		}
	}
}

func (sc *scanner) fieldValue() (Value, error) {
	if sc.eof() {
		return Value{}, errors.New("empty value")
	}
	if sc.s[sc.pos] == '"' {
		sc.pos++
		var b strings.Builder
		for {
			if sc.eof() {
				return Value{}, errors.New("unterminated string")
			}
			c := sc.s[sc.pos]
			if c == '\\' && sc.pos+1 < len(sc.s) {
				nxt := sc.s[sc.pos+1]
				if nxt == '"' || nxt == '\\' {
					b.WriteByte(nxt)
					sc.pos += 2
					continue
				}
			}
			if c == '"' {
				sc.pos++
				return String(b.String()), nil
			}
			b.WriteByte(c)
			sc.pos++
		}
	}
	raw, err := sc.token(", ")
	if err != nil {
		return Value{}, err
	}
	if raw == "" {
		return Value{}, errors.New("empty value")
	}
	switch raw {
	case "t", "T", "true", "True", "TRUE":
		return Bool(true), nil
	case "f", "F", "false", "False", "FALSE":
		return Bool(false), nil
	}
	if raw[len(raw)-1] == 'i' {
		n, err := strconv.ParseInt(raw[:len(raw)-1], 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad integer %q", raw)
		}
		return Int(n), nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return Value{}, fmt.Errorf("bad float %q", raw)
	}
	return Float(f), nil
}
