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
	"errors"
	"fmt"
	"math"
	"slices"
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
// One 8-byte payload serves the numeric kinds, decoded by kind: a float's
// bits, an integer, or 0/1 for a bool.
type Value struct {
	kind ValueKind
	u    uint64
	str  string
}

// Float returns a float-typed Value.
func Float(f float64) Value { return Value{kind: KindFloat, u: math.Float64bits(f)} }

// Int returns an integer-typed Value.
func Int(i int64) Value { return Value{kind: KindInt, u: uint64(i)} }

// Bool returns a boolean-typed Value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.u = 1
	}
	return v
}

// String returns a string-typed Value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Kind reports the value's type.
func (v Value) Kind() ValueKind { return v.kind }

// float is the payload of a float value.
func (v Value) float() float64 { return math.Float64frombits(v.u) }

// FloatVal returns the value as a float64. Integers and booleans are
// converted; strings yield 0.
func (v Value) FloatVal() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt, KindBool:
		return float64(int64(v.u))
	default:
		return 0
	}
}

// IntVal returns the value as an int64, truncating floats.
func (v Value) IntVal() int64 {
	switch v.kind {
	case KindFloat:
		return int64(v.float())
	case KindInt, KindBool:
		return int64(v.u)
	default:
		return 0
	}
}

// BoolVal returns the value as a bool (non-zero numbers are true; a float
// -0 is zero).
func (v Value) BoolVal() bool {
	switch v.kind {
	case KindString:
		return v.str == "true"
	case KindFloat:
		return v.float() != 0
	default:
		return v.u != 0
	}
}

// StringVal returns the string payload for string values and a formatted
// representation for the numeric kinds.
func (v Value) StringVal() string {
	switch v.kind {
	case KindString:
		return v.str
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(int64(v.u), 10)
	case KindBool:
		if v.u != 0 {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// Equal reports deep equality of two values, treating NaN floats as equal so
// round-trip properties hold (and -0 equal to 0, as floats compare).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat:
		a, b := v.float(), o.float()
		return a == b || math.IsNaN(a) && math.IsNaN(b)
	case KindInt, KindBool:
		return v.u == o.u
	case KindString:
		return v.str == o.str
	default:
		return false
	}
}

// Point is one decoded line: a measurement with tags, fields and an optional
// timestamp. A zero Time means "no timestamp supplied" (the receiver assigns
// arrival time, mirroring InfluxDB behaviour).
//
// Tags and Fields are in strictly ascending key order. Parse, NewPoint and
// MergeTags build them that way, and Validate refuses a point that is not,
// so every consumer — the text encoder, the router's enrich, the batch
// frame encoder — walks them in order: no map, no sort, and a copy where a
// map-shaped point needed a sort. A parsed point's slices are views into
// its batch's arenas, capped so an append cannot reach a neighbour; a
// point is never written to after it is built.
type Point struct {
	Measurement string
	Tags        []Tag
	Fields      []Field
	Time        time.Time
}

// Tag is one tag key/value pair of a point.
type Tag struct{ Key, Value string }

// Field is one field key/value pair of a point.
type Field struct {
	Key   string
	Value Value
}

// NewPoint builds a point from maps: the shape of callers that assemble a
// point key by key (collector plugins, tests). A zero t leaves the point
// without a timestamp.
func NewPoint(measurement string, tags map[string]string, fields map[string]Value, t time.Time) Point {
	p := Point{Measurement: measurement, Tags: TagsFrom(tags), Time: t}
	if len(fields) > 0 {
		p.Fields = make([]Field, 0, len(fields))
		for k, v := range fields {
			p.Fields = append(p.Fields, Field{k, v})
		}
		slices.SortFunc(p.Fields, func(a, b Field) int { return strings.Compare(a.Key, b.Key) })
	}
	return p
}

// TagsFrom returns the pairs of m in ascending key order (nil for an empty
// m): a tag set held as a map, in a point's shape.
func TagsFrom(m map[string]string) []Tag {
	if len(m) == 0 {
		return nil
	}
	tags := make([]Tag, 0, len(m))
	for k, v := range m {
		tags = append(tags, Tag{k, v})
	}
	slices.SortFunc(tags, func(a, b Tag) int { return strings.Compare(a.Key, b.Key) })
	return tags
}

// MergeTags appends to dst the union of own and add in ascending key
// order, and returns the extended slice; where both hold a key, own's
// value wins. Both inputs must be in a point's order, and so is the
// result. It is the one tag merge of the stack: the router's job enrich,
// Batch's default tags and the collector agent's host tags.
func MergeTags(dst, own, add []Tag) []Tag {
	i, j := 0, 0
	for i < len(own) && j < len(add) {
		switch c := strings.Compare(own[i].Key, add[j].Key); {
		case c < 0:
			dst = append(dst, own[i])
			i++
		case c > 0:
			dst = append(dst, add[j])
			j++
		default:
			dst = append(dst, own[i])
			i++
			j++
		}
	}
	dst = append(dst, own[i:]...)
	return append(dst, add[j:]...)
}

// Tag returns the value of the point's tag key, "" when it has none.
func (p Point) Tag(key string) string {
	for _, t := range p.Tags {
		if t.Key >= key {
			if t.Key == key {
				return t.Value
			}
			break
		}
	}
	return ""
}

// Equal reports semantic equality of two points (timestamps compared at
// nanosecond resolution, NaN fields equal).
func (p Point) Equal(o Point) bool {
	return p.Measurement == o.Measurement && p.Time.Equal(o.Time) &&
		slices.Equal(p.Tags, o.Tags) &&
		slices.EqualFunc(p.Fields, o.Fields, func(a, b Field) bool { return a.Key == b.Key && a.Value.Equal(b.Value) })
}

// Validate checks that the point can be encoded: non-empty measurement, at
// least one field, no empty tag/field keys or tag values, and tags and
// fields in strictly ascending key order.
func (p Point) Validate() error {
	if p.Measurement == "" {
		return errors.New("lineproto: empty measurement")
	}
	if len(p.Fields) == 0 {
		return fmt.Errorf("lineproto: point %q has no fields", p.Measurement)
	}
	for i, t := range p.Tags {
		switch {
		case t.Key == "":
			return fmt.Errorf("lineproto: point %q has empty tag key", p.Measurement)
		case t.Value == "":
			return fmt.Errorf("lineproto: point %q tag %q has empty value", p.Measurement, t.Key)
		case i > 0 && p.Tags[i-1].Key >= t.Key:
			return fmt.Errorf("lineproto: point %q tag %q is repeated or out of key order", p.Measurement, t.Key)
		}
	}
	for i, f := range p.Fields {
		switch {
		case f.Key == "":
			return fmt.Errorf("lineproto: point %q has empty field key", p.Measurement)
		case i > 0 && p.Fields[i-1].Key >= f.Key:
			return fmt.Errorf("lineproto: point %q field %q is repeated or out of key order", p.Measurement, f.Key)
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
// returns the extended slice: tags and fields in the point's key order, so
// the encoding is deterministic. It returns an error for invalid points.
func AppendPoint(dst []byte, p Point) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	dst = escape(dst, p.Measurement, measurementEscapes)
	for _, t := range p.Tags {
		dst = append(dst, ',')
		dst = escape(dst, t.Key, keyEscapes)
		dst = append(dst, '=')
		dst = escape(dst, t.Value, keyEscapes)
	}
	for i, f := range p.Fields {
		dst = append(dst, " ,"[min(i, 1)])
		dst = escape(dst, f.Key, keyEscapes)
		dst = append(dst, '=')
		dst = appendValue(dst, f.Value)
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
		return strconv.AppendFloat(dst, v.float(), 'g', -1, 64)
	case KindInt:
		dst = strconv.AppendInt(dst, int64(v.u), 10)
		return append(dst, 'i')
	case KindBool:
		if v.u != 0 {
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
//
// The body is copied into one string, and every token without an escape
// is a substring of it; the points' tags and fields are views into a tag
// and a field arena, sized by the lines' shape in blocks of up to maxBlock
// keys. A collector's body of uniform lines thus costs a handful of
// allocations, not a few per line. A string kept from a point keeps the
// whole body alive: a caller that holds one past the batch clones it.
func Parse(data []byte) ([]Point, error) {
	var (
		points []Point
		a      arena
	)
	s := string(data)
	lines := 1 + strings.Count(s, "\n") // at most: a final newline ends no line
	for lineNo := 1; len(s) > 0; lineNo++ {
		var line string
		if idx := strings.IndexByte(s, '\n'); idx >= 0 {
			line, s = s[:idx], s[idx+1:]
		} else {
			line, s = s, ""
		}
		line = trimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		left := lines - lineNo + 1 // lines not yet parsed, this one included
		if points == nil {
			// At most one point per line left, and a point takes at least
			// the five bytes of "m k=v": the batch is sized once, the
			// arenas by this line's shape.
			points = make([]Point, 0, min(left, (len(line)+len(s))/5+1))
			a.wantTags, a.wantFields = shape(line)
		}
		a.reserve(left)
		p, err := a.parseLine(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Reason: err.Error(), Input: line}
		}
		points = append(points, p)
	}
	return points, nil
}

// ParseLine decodes a single line.
func ParseLine(line string) (Point, error) {
	trimmed := strings.TrimSpace(line)
	var a arena
	a.wantTags, a.wantFields = shape(trimmed)
	a.reserve(1)
	p, err := a.parseLine(trimmed)
	if err != nil {
		return Point{}, &ParseError{Line: 1, Reason: err.Error(), Input: line}
	}
	return p, nil
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\r') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// shape estimates a line's tag and field counts from its commas, escapes
// and string values aside.
func shape(line string) (tags, fields int) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return 0, 1
	}
	return strings.Count(line[:sp], ","), 1 + strings.Count(line[sp:], ",")
}

// arena holds the tags and fields of one body's points. A point's keys
// are appended at the end of each and the point keeps a view capped at its
// own last key, so no append reaches a neighbour's.
type arena struct {
	tags   []Tag
	fields []Field
	// What the next line is expected to need: the last line's counts.
	wantTags, wantFields int
}

// maxBlock bounds an arena block, in keys, unless one line needs more.
const maxBlock = 4096

// reserve makes sure the next line's expected keys fit. When they do not,
// a block is started for the lines left at that shape, up to maxBlock keys:
// one wide line ahead of many narrow ones must not reserve its width for
// all of them, and a big body's arena grows block by block. The points
// parsed so far keep the block they view.
func (a *arena) reserve(lines int) {
	if cap(a.tags)-len(a.tags) < a.wantTags {
		a.tags = make([]Tag, 0, min(a.wantTags*lines, max(a.wantTags, maxBlock)))
	}
	if cap(a.fields)-len(a.fields) < a.wantFields {
		a.fields = make([]Field, 0, min(a.wantFields*lines, max(a.wantFields, maxBlock)))
	}
}

// addTag inserts t among the tags of the point being parsed, which start
// at from, keeping them in ascending key order. A collector sends its tags
// sorted, so the usual cost is one comparison. A repeated key is refused.
func (a *arena) addTag(from int, t Tag) error {
	a.tags = append(a.tags, t)
	i := len(a.tags) - 1
	for ; i > from && a.tags[i-1].Key >= t.Key; i-- {
		if a.tags[i-1].Key == t.Key {
			// Most often a value with an unescaped ",k=v" in it: keeping
			// either value would store a point nobody sent.
			return fmt.Errorf("duplicate tag %q", t.Key)
		}
		a.tags[i] = a.tags[i-1]
	}
	a.tags[i] = t
	return nil
}

// addField is addTag for the fields.
func (a *arena) addField(from int, f Field) error {
	a.fields = append(a.fields, f)
	i := len(a.fields) - 1
	for ; i > from && a.fields[i-1].Key >= f.Key; i-- {
		if a.fields[i-1].Key == f.Key {
			return fmt.Errorf("duplicate field %q", f.Key)
		}
		a.fields[i] = a.fields[i-1]
	}
	a.fields[i] = f
	return nil
}

// scanner walks a single line honouring backslash escapes and quoted strings.
type scanner struct {
	s   string
	pos int
}

func (sc *scanner) eof() bool { return sc.pos >= len(sc.s) }

// stopSet marks the bytes that end a token, and the backslash that ends
// its fast scan: a table lookup per byte of the body instead of a search
// of a stop string.
type stopSet [256]bool

func newStopSet(stop string) (s stopSet) {
	for i := 0; i < len(stop); i++ {
		s[stop[i]] = true
	}
	s['\\'] = true
	return s
}

var (
	endValue = newStopSet(", ")  // a measurement, tag value or unquoted field value
	endKey   = newStopSet("=, ") // a tag or field key
)

// token consumes until an unescaped byte in stop is found; the stop byte is
// not consumed. A token without a backslash — every token a collector
// emits — is returned as a substring of the line, which Parse already
// copied off the request body; only an escape pays for a builder.
func (sc *scanner) token(stop *stopSet) (string, error) {
	start, i := sc.pos, sc.pos
	for i < len(sc.s) && !stop[sc.s[i]] {
		i++
	}
	sc.pos = i
	if i < len(sc.s) && sc.s[i] == '\\' {
		return sc.escapedToken(start, stop)
	}
	return sc.s[start:i], nil
}

// escapedToken finishes a token whose first backslash sits at sc.pos,
// resolving escapes into a fresh string.
func (sc *scanner) escapedToken(start int, stop *stopSet) (string, error) {
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
		if stop[c] {
			break
		}
		b.WriteByte(c)
		sc.pos++
	}
	return b.String(), nil
}

// parseLine decodes one non-empty line, its tags and fields into the
// arena. The arena's tail past the last point is scratch, so an error
// leaves nothing to undo.
func (a *arena) parseLine(line string) (Point, error) {
	if line == "" {
		return Point{}, errors.New("empty line")
	}
	sc := &scanner{s: line}
	meas, err := sc.token(&endValue)
	if err != nil {
		return Point{}, err
	}
	if meas == "" {
		return Point{}, errors.New("empty measurement")
	}
	p := Point{Measurement: meas}
	// Tags.
	t0 := len(a.tags)
	for !sc.eof() && sc.s[sc.pos] == ',' {
		sc.pos++
		key, err := sc.token(&endKey)
		if err != nil {
			return Point{}, err
		}
		if sc.eof() || sc.s[sc.pos] != '=' {
			return Point{}, fmt.Errorf("tag %q missing '='", key)
		}
		sc.pos++
		val, err := sc.token(&endValue)
		if err != nil {
			return Point{}, err
		}
		if key == "" || val == "" {
			return Point{}, errors.New("empty tag key or value")
		}
		if err := a.addTag(t0, Tag{key, val}); err != nil {
			return Point{}, err
		}
	}
	if sc.eof() || sc.s[sc.pos] != ' ' {
		return Point{}, errors.New("missing field section")
	}
	for !sc.eof() && sc.s[sc.pos] == ' ' {
		sc.pos++
	}
	// Fields.
	f0 := len(a.fields)
	for {
		key, err := sc.token(&endKey)
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
		if err := a.addField(f0, Field{key, val}); err != nil {
			return Point{}, err
		}
		if sc.eof() {
			break
		}
		if sc.s[sc.pos] == ',' {
			sc.pos++
			continue
		}
		if sc.s[sc.pos] != ' ' {
			return Point{}, fmt.Errorf("unexpected byte %q after field", sc.s[sc.pos])
		}
		for !sc.eof() && sc.s[sc.pos] == ' ' {
			sc.pos++
		}
		if !sc.eof() {
			ts := sc.s[sc.pos:]
			ns, err := strconv.ParseInt(ts, 10, 64)
			if err != nil {
				return Point{}, fmt.Errorf("bad timestamp %q", ts)
			}
			p.Time = time.Unix(0, ns).UTC()
		}
		break
	}
	if n := len(a.tags); n > t0 {
		p.Tags = a.tags[t0:n:n]
	}
	n := len(a.fields)
	p.Fields = a.fields[f0:n:n]
	a.wantTags, a.wantFields = len(p.Tags), len(p.Fields)
	return p, nil
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
	raw, err := sc.token(&endValue)
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
