package lineproto_test

// The reference parser and encoders: the map-building text parser and the
// two encoders that walked those maps with a key sort — the production
// code until a point carried its tags and fields as key-sorted slices. They
// stay here so the slice parser is held against a decode that shares no
// code with it (FuzzParseReference): the same verdict on every body, the
// same points, and — for what it accepts — the same line-protocol text and
// the same durable batch frame byte for byte, the canonical frame the
// golden WAL and the replicas' byte-identity oracles rely on.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb/durable"
)

// refPoint is a point as the reference parser builds it: two maps.
type refPoint struct {
	Measurement string
	Tags        map[string]string
	Fields      map[string]lineproto.Value
	Time        time.Time
}

const refKeyEscapes = ",= \\"

func refParse(data []byte) ([]refPoint, error) {
	var points []refPoint
	for len(data) > 0 {
		var line []byte
		if idx := bytes.IndexByte(data, '\n'); idx >= 0 {
			line, data = data[:idx], data[idx+1:]
		} else {
			line, data = data, nil
		}
		line = bytes.Trim(line, " \t\r")
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		p, err := refParseLine(string(line))
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

type refScanner struct {
	s   string
	pos int
}

func (sc *refScanner) eof() bool { return sc.pos >= len(sc.s) }

func (sc *refScanner) token(stop string) (string, error) {
	var b strings.Builder
	for !sc.eof() {
		c := sc.s[sc.pos]
		if c == '\\' {
			if sc.pos+1 >= len(sc.s) {
				return "", errors.New("dangling backslash")
			}
			nxt := sc.s[sc.pos+1]
			if strings.IndexByte(refKeyEscapes+`"\`, nxt) >= 0 {
				b.WriteByte(nxt)
				sc.pos += 2
				continue
			}
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

func refParseLine(line string) (refPoint, error) {
	sc := &refScanner{s: line}
	meas, err := sc.token(", ")
	if err != nil {
		return refPoint{}, err
	}
	if meas == "" {
		return refPoint{}, errors.New("empty measurement")
	}
	p := refPoint{Measurement: meas}
	for !sc.eof() && sc.s[sc.pos] == ',' {
		sc.pos++
		key, err := sc.token("=, ")
		if err != nil {
			return refPoint{}, err
		}
		if sc.eof() || sc.s[sc.pos] != '=' {
			return refPoint{}, fmt.Errorf("tag %q missing '='", key)
		}
		sc.pos++
		val, err := sc.token(", ")
		if err != nil {
			return refPoint{}, err
		}
		if key == "" || val == "" {
			return refPoint{}, errors.New("empty tag key or value")
		}
		if _, dup := p.Tags[key]; dup {
			return refPoint{}, fmt.Errorf("duplicate tag %q", key)
		}
		if p.Tags == nil {
			p.Tags = map[string]string{}
		}
		p.Tags[key] = val
	}
	if sc.eof() || sc.s[sc.pos] != ' ' {
		return refPoint{}, errors.New("missing field section")
	}
	for !sc.eof() && sc.s[sc.pos] == ' ' {
		sc.pos++
	}
	p.Fields = map[string]lineproto.Value{}
	for {
		key, err := sc.token("=, ")
		if err != nil {
			return refPoint{}, err
		}
		if key == "" {
			return refPoint{}, errors.New("empty field key")
		}
		if sc.eof() || sc.s[sc.pos] != '=' {
			return refPoint{}, fmt.Errorf("field %q missing '='", key)
		}
		sc.pos++
		val, err := sc.fieldValue()
		if err != nil {
			return refPoint{}, err
		}
		if _, dup := p.Fields[key]; dup {
			return refPoint{}, fmt.Errorf("duplicate field %q", key)
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
			ns, err := strconv.ParseInt(sc.s[sc.pos:], 10, 64)
			if err != nil {
				return refPoint{}, fmt.Errorf("bad timestamp %q", sc.s[sc.pos:])
			}
			p.Time = time.Unix(0, ns).UTC()
			return p, nil
		default:
			return refPoint{}, fmt.Errorf("unexpected byte %q after field", sc.s[sc.pos])
		}
	}
}

func (sc *refScanner) fieldValue() (lineproto.Value, error) {
	if sc.eof() {
		return lineproto.Value{}, errors.New("empty value")
	}
	if sc.s[sc.pos] == '"' {
		sc.pos++
		var b strings.Builder
		for {
			if sc.eof() {
				return lineproto.Value{}, errors.New("unterminated string")
			}
			c := sc.s[sc.pos]
			if c == '\\' && sc.pos+1 < len(sc.s) && (sc.s[sc.pos+1] == '"' || sc.s[sc.pos+1] == '\\') {
				b.WriteByte(sc.s[sc.pos+1])
				sc.pos += 2
				continue
			}
			sc.pos++
			if c == '"' {
				return lineproto.String(b.String()), nil
			}
			b.WriteByte(c)
		}
	}
	raw, err := sc.token(", ")
	if err != nil {
		return lineproto.Value{}, err
	}
	switch raw {
	case "":
		return lineproto.Value{}, errors.New("empty value")
	case "t", "T", "true", "True", "TRUE":
		return lineproto.Bool(true), nil
	case "f", "F", "false", "False", "FALSE":
		return lineproto.Bool(false), nil
	}
	if raw[len(raw)-1] == 'i' {
		n, err := strconv.ParseInt(raw[:len(raw)-1], 10, 64)
		if err != nil {
			return lineproto.Value{}, fmt.Errorf("bad integer %q", raw)
		}
		return lineproto.Int(n), nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return lineproto.Value{}, fmt.Errorf("bad float %q", raw)
	}
	return lineproto.Float(f), nil
}

func refSortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func refEscape(dst []byte, s, chars string) []byte {
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(chars, s[i]) >= 0 {
			dst = append(dst, '\\')
		}
		dst = append(dst, s[i])
	}
	return dst
}

// refEncode renders points as canonical line-protocol text: tags and
// fields in sorted key order.
func refEncode(pts []refPoint) []byte {
	var dst []byte
	for _, p := range pts {
		dst = refEscape(dst, p.Measurement, ", \\")
		for _, k := range refSortedKeys(p.Tags) {
			dst = append(dst, ',')
			dst = refEscape(dst, k, refKeyEscapes)
			dst = append(dst, '=')
			dst = refEscape(dst, p.Tags[k], refKeyEscapes)
		}
		for i, k := range refSortedKeys(p.Fields) {
			dst = append(dst, " ,"[min(i, 1)])
			dst = refEscape(dst, k, refKeyEscapes)
			dst = append(dst, '=')
			v := p.Fields[k]
			switch v.Kind() {
			case lineproto.KindFloat:
				dst = strconv.AppendFloat(dst, v.FloatVal(), 'g', -1, 64)
			case lineproto.KindInt:
				dst = append(strconv.AppendInt(dst, v.IntVal(), 10), 'i')
			case lineproto.KindBool:
				dst = strconv.AppendBool(dst, v.BoolVal())
			default:
				dst = append(refEscape(append(dst, '"'), v.StringVal(), `"\`), '"')
			}
		}
		if !p.Time.IsZero() {
			dst = strconv.AppendInt(append(dst, ' '), p.Time.UnixNano(), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// refAppendBatch is the durable batch frame of pts (durable/batch.go
// documents the format), tags and fields in sorted key order.
func refAppendBatch(dst []byte, pts []refPoint, nowNS int64) []byte {
	str := func(dst []byte, s string) []byte {
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = str(dst, p.Measurement)
		dst = binary.AppendUvarint(dst, uint64(len(p.Tags)))
		for _, k := range refSortedKeys(p.Tags) {
			dst = str(str(dst, k), p.Tags[k])
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Fields)))
		for _, k := range refSortedKeys(p.Fields) {
			v := p.Fields[k]
			dst = append(str(dst, k), byte(v.Kind()))
			switch v.Kind() {
			case lineproto.KindFloat:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.FloatVal()))
			case lineproto.KindInt:
				dst = binary.AppendVarint(dst, v.IntVal())
			case lineproto.KindBool:
				dst = append(dst, byte(v.IntVal()))
			default:
				dst = str(dst, v.StringVal())
			}
		}
		ns := nowNS
		if !p.Time.IsZero() {
			ns = p.Time.UnixNano()
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(ns))
	}
	return dst
}

// sameAsRef reports whether p holds exactly what the reference point r
// does.
func sameAsRef(p lineproto.Point, r refPoint) bool {
	return p.Equal(lineproto.NewPoint(r.Measurement, r.Tags, r.Fields, r.Time))
}

// FuzzParseReference: arbitrary bodies through Parse and the reference
// parser. Both accept or both refuse; what they accept is the same points,
// the same canonical text and the same batch frame.
func FuzzParseReference(f *testing.F) {
	seeds := []string{
		// FuzzParse's seeds.
		"cpu user=1.5\n# comment\n\nmem used=2i 1439856000000000000\n",
		"  \t\r\ncpu,host=a user=1\r\n",
		"cpu user=1 bad",
		// Keys out of order and repeated, escapes, every value kind.
		"cpu,z=1,a=2,m=3 zz=1i,aa=2i 7",
		"cpu,a=1,a=2 v=1",
		"cpu v=1,v=2",
		`disk,path=/var free=12i,label="root \"fs\"",full=false`,
		`we\,ird\ m\=eas,t\ ag=v\,al fi\=eld=1`,
		"m f=NaN,g=+Inf,h=-0\nm f=9223372036854775807i -9223372036854775808",
	}
	seeds = append(seeds, lineproto.UnderEscapedLines()...)
	// A bench-shaped host cycle: two measurements of three hosts.
	var cycle []byte
	for i := 0; i < 8; i++ {
		cycle = fmt.Appendf(cycle, "cpu,cluster=emmy,hostname=h%03d,socket=%d,type=node idle=91.5,iowait=0.25,system=3.125,user=5.125 %d\n",
			i%3, i%2, 1501804800000000000+int64(i))
		cycle = fmt.Appendf(cycle, "mem,hostname=h%03d,type=node used=%di,free=2i\n", i%3, i)
	}
	seeds = append(seeds, string(cycle))
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	const now = 1600000000000000000
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := lineproto.Parse(data)
		ref, rerr := refParse(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("verdicts differ on %q: Parse %v, reference %v", data, err, rerr)
		}
		if err != nil {
			return
		}
		if len(pts) != len(ref) {
			t.Fatalf("%d points, reference %d", len(pts), len(ref))
		}
		for i := range pts {
			if err := pts[i].Validate(); err != nil {
				t.Fatalf("point %d fails validation: %v", i, err)
			}
			if !sameAsRef(pts[i], ref[i]) {
				t.Fatalf("point %d = %+v, reference %+v", i, pts[i], ref[i])
			}
		}
		if len(pts) == 0 {
			return
		}
		text, err := lineproto.Encode(pts)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncode(ref); !bytes.Equal(text, want) {
			t.Fatalf("text %q, reference %q", text, want)
		}
		if got, want := durable.AppendBatch(nil, pts, now), refAppendBatch(nil, ref, now); !bytes.Equal(got, want) {
			t.Fatalf("frame %x, reference %x", got, want)
		}
	})
}
