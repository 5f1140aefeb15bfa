package lineproto

// Fuzzed decoder hardening (DESIGN.md §11). The line-protocol parser is
// the outermost attacker-facing decoder of lms-db — every /write body
// runs through it — so it must never panic, and anything it accepts must
// survive the canonical encode/reparse round trip: parse → encode →
// parse must reproduce the same point, or the WAL and the router would
// disagree with the in-memory store about what was written.

import (
	"testing"
	"time"
)

// FuzzParseLine: arbitrary bytes through the single-line parser.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		"cpu user=1.5",
		"cpu,host=a,core=3 user=1.5,sys=2i,idle=97i 1439856000000000000",
		`disk,path=/var free=12i,label="root \"fs\"",full=false`,
		`we\,ird\ m\=eas,t\ ag=v\,al fi\=eld=1`,
		"m f=" + `"unterminated`,
		"m f=1e309",
		"m f=NaN,g=+Inf,h=-0",
		"m f=9223372036854775807i -9223372036854775808",
		"m,t== f=1",
		"m f=1 99999999999999999999",
		"m\\",
		"# comment",
		"m f=t,g=F,h=TRUE",
	}
	for _, c := range underEscaped {
		seeds = append(seeds, c.line)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p, err := ParseLine(line)
		if err != nil {
			return
		}
		// The parser's own checks (non-empty measurement, tag keys/values,
		// field keys) are exactly what Validate demands; a parsed point
		// must therefore always be encodable.
		if err := p.Validate(); err != nil {
			t.Fatalf("parsed point fails validation: %v (line %q)", err, line)
		}
		enc, err := EncodePoint(p)
		if err != nil {
			t.Fatalf("parsed point does not encode: %v (line %q)", err, line)
		}
		rt, err := ParseLine(string(enc))
		if err != nil {
			t.Fatalf("canonical encoding does not reparse: %v (%q from %q)", err, enc, line)
		}
		if !rt.Equal(p) {
			t.Fatalf("round trip changed the point: %q -> %q", line, enc)
		}
	})
}

// underEscaped are lines as a producer writes them that escapes spaces and
// nothing else — SNIPPETS.md snippet 1's InfluxDbEscapeString — for a
// sensor point whose measurement, tag values or field key hold an
// unescaped ',' or '=', each with the point the producer meant (zero where
// the line cannot say it).
var underEscaped = []struct {
	line  string
	meant Point // zero where the line cannot say it
}{
	{`sensor,id=7,name=desk,lamp value=1`, Point{}}, // name "desk,lamp"
	{`sensor,id=7,name=lamp,id=9 value=1`, Point{}}, // name "lamp,id=9"
	{`sensor,id=7,name=k=v value=1`, NewPoint("sensor", map[string]string{"id": "7", "name": "k=v"},
		map[string]Value{"value": Float(1)}, time.Time{})},
	{`sensor,id=7 va,lue=1`, Point{}},        // field key "va,lue"
	{`sensor,id=7 va=lue=1`, Point{}},        // field key "va=lue"
	{`sensor,id=7 value=1,value=2`, Point{}}, // field key "value=1,value"
	{`sen,sor,id=7 value=1`, Point{}},        // measurement "sen,sor"
	{`sen=sor,id=7 value=1`, NewPoint("sen=sor", map[string]string{"id": "7"},
		map[string]Value{"value": Float(1)}, time.Time{})},
	{`sen\ sor,id=7,name=a\ b value=1`, NewPoint("sen sor", map[string]string{"id": "7", "name": "a b"},
		map[string]Value{"value": Float(1)}, time.Time{})},
}

// TestParseUnderEscaped: a line whose unescaped ',' or '=' came from inside
// a name or value is refused or parsed as the point meant — never split
// into other tags or fields, and never a tag or field that silently
// replaces another. (A value holding ",k=v" with a key the line does not
// repeat reads as one more tag by the grammar itself; no parser can tell.)
func TestParseUnderEscaped(t *testing.T) {
	for _, c := range underEscaped {
		p, err := ParseLine(c.line)
		switch {
		case c.meant.Measurement == "" && err == nil:
			t.Errorf("%q parsed as %+v, want it refused", c.line, p)
		case c.meant.Measurement != "" && err != nil:
			t.Errorf("%q refused: %v", c.line, err)
		case c.meant.Measurement != "" && !p.Equal(c.meant):
			t.Errorf("%q parsed as %+v, want %+v", c.line, p, c.meant)
		}
	}
}

// FuzzParse: arbitrary bytes through the batch parser — the exact code
// path a hostile /write body takes. Parse must never panic, and every
// point of an accepted batch must round-trip like the single-line case.
func FuzzParse(f *testing.F) {
	f.Add([]byte("cpu user=1.5\n# comment\n\nmem used=2i 1439856000000000000\n"))
	f.Add([]byte("  \t\r\ncpu,host=a user=1\r\n"))
	f.Add([]byte("cpu user=1 bad"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := Encode(pts)
		if err != nil {
			t.Fatalf("accepted batch does not encode: %v", err)
		}
		rt, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical batch does not reparse: %v (%q)", err, enc)
		}
		if len(rt) != len(pts) {
			t.Fatalf("round trip changed batch size: %d -> %d", len(pts), len(rt))
		}
		for i := range pts {
			if !rt[i].Equal(pts[i]) {
				t.Fatalf("round trip changed point %d", i)
			}
		}
	})
}
