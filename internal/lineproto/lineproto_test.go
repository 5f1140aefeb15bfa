package lineproto

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ts(ns int64) time.Time { return time.Unix(0, ns).UTC() }

func TestEncodeBasic(t *testing.T) {
	p := Point{
		Measurement: "cpu_load",
		Tags:        map[string]string{"hostname": "h1", "jobid": "42"},
		Fields:      map[string]Value{"value": Float(1.5)},
		Time:        ts(1000),
	}
	got, err := EncodePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	want := "cpu_load,hostname=h1,jobid=42 value=1.5 1000"
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestEncodeSortsTagsAndFields(t *testing.T) {
	p := Point{
		Measurement: "m",
		Tags:        map[string]string{"z": "1", "a": "2", "m": "3"},
		Fields:      map[string]Value{"zz": Int(1), "aa": Int(2)},
		Time:        ts(7),
	}
	got, err := EncodePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	want := "m,a=2,m=3,z=1 aa=2i,zz=1i 7"
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestEncodeEscaping(t *testing.T) {
	p := Point{
		Measurement: "my measure,ment",
		Tags:        map[string]string{"ta g": "va,l=ue"},
		Fields:      map[string]Value{"f,= ield": Float(1)},
		Time:        ts(1),
	}
	got, err := EncodePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `my\ measure\,ment,ta\ g=va\,l\=ue f\,\=\ ield=1 1`
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}
	back, err := ParseLine(string(got))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(p) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, p)
	}
}

func TestEncodeStringField(t *testing.T) {
	p := Point{
		Measurement: "events",
		Tags:        map[string]string{"hostname": "h1"},
		Fields:      map[string]Value{"text": String(`job "start" via \curl`)},
		Time:        ts(5),
	}
	enc, err := EncodePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `events,hostname=h1 text="job \"start\" via \\curl" 5`
	if string(enc) != want {
		t.Fatalf("got %q want %q", enc, want)
	}
	back, err := ParseLine(string(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Fields["text"].StringVal(); got != `job "start" via \curl` {
		t.Fatalf("string round trip got %q", got)
	}
}

func TestEncodeValueKinds(t *testing.T) {
	p := Point{
		Measurement: "m",
		Fields: map[string]Value{
			"f": Float(2.25),
			"i": Int(-7),
			"b": Bool(true),
			"s": String("x"),
		},
		Time: ts(9),
	}
	enc, err := EncodePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `m b=true,f=2.25,i=-7i,s="x" 9`
	if string(enc) != want {
		t.Fatalf("got %q want %q", enc, want)
	}
}

func TestEncodeNoTimestamp(t *testing.T) {
	p := Point{Measurement: "m", Fields: map[string]Value{"v": Float(1)}}
	enc, err := EncodePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != "m v=1" {
		t.Fatalf("got %q", enc)
	}
	back, err := ParseLine(string(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Time.IsZero() {
		t.Fatalf("expected zero time, got %v", back.Time)
	}
}

func TestEncodeInvalid(t *testing.T) {
	cases := []Point{
		{},                 // empty measurement
		{Measurement: "m"}, // no fields
		{Measurement: "m", Fields: map[string]Value{"": Float(1)}},                                    // empty field key
		{Measurement: "m", Tags: map[string]string{"": "v"}, Fields: map[string]Value{"f": Float(1)}}, // empty tag key
		{Measurement: "m", Tags: map[string]string{"t": ""}, Fields: map[string]Value{"f": Float(1)}}, // empty tag value
	}
	for i, p := range cases {
		if _, err := EncodePoint(p); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestParseBasic(t *testing.T) {
	p, err := ParseLine("likwid_flops_dp,hostname=node07,jobid=1234.master mflops=2345.5 1500000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if p.Measurement != "likwid_flops_dp" {
		t.Errorf("measurement %q", p.Measurement)
	}
	if p.Tags["hostname"] != "node07" || p.Tags["jobid"] != "1234.master" {
		t.Errorf("tags %v", p.Tags)
	}
	if v := p.Fields["mflops"]; v.Kind() != KindFloat || v.FloatVal() != 2345.5 {
		t.Errorf("field %v", v)
	}
	if p.Time.UnixNano() != 1500000000000000000 {
		t.Errorf("time %v", p.Time)
	}
}

func TestParseMultipleFields(t *testing.T) {
	p, err := ParseLine(`mem,hostname=h1 used=5.5,free=2.5,total=8i,swapped=f,state="ok" 42`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fields) != 5 {
		t.Fatalf("fields %v", p.Fields)
	}
	if p.Fields["total"].Kind() != KindInt || p.Fields["total"].IntVal() != 8 {
		t.Errorf("total %v", p.Fields["total"])
	}
	if p.Fields["swapped"].BoolVal() {
		t.Errorf("swapped should be false")
	}
	if p.Fields["state"].StringVal() != "ok" {
		t.Errorf("state %v", p.Fields["state"])
	}
}

func TestParseNoTags(t *testing.T) {
	p, err := ParseLine("m value=1 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tags) != 0 {
		t.Fatalf("tags %v", p.Tags)
	}
}

func TestParseBoolForms(t *testing.T) {
	for _, s := range []string{"t", "T", "true", "True", "TRUE"} {
		p, err := ParseLine("m v=" + s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !p.Fields["v"].BoolVal() {
			t.Errorf("%s parsed as false", s)
		}
	}
	for _, s := range []string{"f", "F", "false", "False", "FALSE"} {
		p, err := ParseLine("m v=" + s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if p.Fields["v"].BoolVal() {
			t.Errorf("%s parsed as true", s)
		}
	}
}

func TestParseScientificFloat(t *testing.T) {
	p, err := ParseLine("m v=1.5e9 1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Fields["v"].FloatVal() != 1.5e9 {
		t.Errorf("got %v", p.Fields["v"])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"measurementonly",
		"m,tag v=1",         // tag without =
		"m,=v f=1",          // empty tag key
		"m,k= f=1",          // empty tag value
		"m f=",              // empty field value
		"m f=1x2",           // garbage value
		"m f=1 notatime",    // bad timestamp
		`m f="unterminated`, // unterminated string
		"m =1",              // empty field key
		"m f=1,",            // trailing comma -> empty field key
		"m f=12i3",          // bad int
	}
	for _, s := range bad {
		if _, err := ParseLine(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestParseBatchSkipsCommentsAndBlanks(t *testing.T) {
	data := []byte("# comment line\n\ncpu value=1 10\n   \nmem value=2 20\n# trailing\n")
	pts, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Measurement != "cpu" || pts[1].Measurement != "mem" {
		t.Fatalf("points %v", pts)
	}
}

func TestParseBatchReportsLineNumber(t *testing.T) {
	data := []byte("cpu value=1 10\nbroken\n")
	_, err := Parse(data)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("expected ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line %d", pe.Line)
	}
}

func TestParseCRLF(t *testing.T) {
	pts, err := Parse([]byte("cpu value=1 10\r\nmem value=2 20\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d", len(pts))
	}
}

func TestValueConversions(t *testing.T) {
	if Float(2.9).IntVal() != 2 {
		t.Error("float->int")
	}
	if Int(3).FloatVal() != 3.0 {
		t.Error("int->float")
	}
	if !Bool(true).BoolVal() || Bool(false).BoolVal() {
		t.Error("bool")
	}
	if Bool(true).FloatVal() != 1 {
		t.Error("bool->float")
	}
	if String("true").BoolVal() != true {
		t.Error("string true")
	}
	if Float(1.5).StringVal() != "1.5" {
		t.Error("float string")
	}
	if Int(-2).StringVal() != "-2" {
		t.Error("int string")
	}
	if Bool(true).StringVal() != "true" || Bool(false).StringVal() != "false" {
		t.Error("bool string")
	}
	if KindFloat.String() != "float" || KindInt.String() != "int" ||
		KindBool.String() != "bool" || KindString.String() != "string" {
		t.Error("kind names")
	}
}

func TestValueEqualNaN(t *testing.T) {
	if !Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN should equal NaN for round-trip checks")
	}
	if Float(1).Equal(Int(1)) {
		t.Error("kinds differ")
	}
}

func TestPointEqual(t *testing.T) {
	base := Point{Measurement: "m", Tags: map[string]string{"a": "1"},
		Fields: map[string]Value{"f": Float(1)}, Time: ts(1)}
	diffs := []Point{
		{Measurement: "x", Tags: base.Tags, Fields: base.Fields, Time: base.Time},
		{Measurement: "m", Tags: map[string]string{"a": "2"}, Fields: base.Fields, Time: base.Time},
		{Measurement: "m", Tags: map[string]string{"b": "1"}, Fields: base.Fields, Time: base.Time},
		{Measurement: "m", Tags: base.Tags, Fields: map[string]Value{"f": Float(2)}, Time: base.Time},
		{Measurement: "m", Tags: base.Tags, Fields: map[string]Value{"g": Float(1)}, Time: base.Time},
		{Measurement: "m", Tags: base.Tags, Fields: base.Fields, Time: ts(2)},
		{Measurement: "m", Fields: base.Fields, Time: base.Time},
	}
	if !base.Equal(base) {
		t.Fatal("self equality")
	}
	for i, d := range diffs {
		if base.Equal(d) {
			t.Errorf("diff %d compared equal", i)
		}
	}
}

// randomPoint builds an arbitrary but valid point from the rand source.
func randomPoint(r *rand.Rand) Point {
	randStr := func(allowEmpty bool) string {
		chars := `abz,= "\xyZ09._-`
		n := r.Intn(8)
		if !allowEmpty {
			n++
		}
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(chars[r.Intn(len(chars))])
		}
		return b.String()
	}
	p := Point{
		Measurement: randStr(false),
		Fields:      map[string]Value{},
		Time:        time.Unix(0, r.Int63()).UTC(),
	}
	for i := r.Intn(4); i > 0; i-- {
		k, v := randStr(false), randStr(false)
		if p.Tags == nil {
			p.Tags = map[string]string{}
		}
		p.Tags[k] = v
	}
	nf := r.Intn(4) + 1
	for i := 0; i < nf; i++ {
		k := randStr(false)
		switch r.Intn(4) {
		case 0:
			p.Fields[k] = Float(math.Round(r.NormFloat64()*1e6) / 1e3)
		case 1:
			p.Fields[k] = Int(r.Int63() - r.Int63())
		case 2:
			p.Fields[k] = Bool(r.Intn(2) == 0)
		default:
			p.Fields[k] = String(randStr(true))
		}
	}
	return p
}

// Property: Parse(Encode(p)) == p for arbitrary valid points.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		_ = seed
		p := randomPoint(r)
		enc, err := EncodePoint(p)
		if err != nil {
			t.Logf("encode error for %+v: %v", p, err)
			return false
		}
		back, err := ParseLine(string(enc))
		if err != nil {
			t.Logf("parse error for %q: %v", enc, err)
			return false
		}
		if !back.Equal(p) {
			t.Logf("mismatch:\n in: %+v\nenc: %q\nout: %+v", p, enc, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch encode/parse preserves order and count.
func TestBatchRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		_ = seed
		n := r.Intn(20) + 1
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randomPoint(r)
		}
		enc, err := Encode(pts)
		if err != nil {
			return false
		}
		back, err := Parse(enc)
		if err != nil || len(back) != n {
			return false
		}
		for i := range pts {
			if !back[i].Equal(pts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchAdd(t *testing.T) {
	b := NewBatch(map[string]string{"hostname": "h1", "cluster": "test"})
	now := ts(100)
	err := b.Add(Point{Measurement: "cpu", Fields: map[string]Value{"v": Float(1)}}, now)
	if err != nil {
		t.Fatal(err)
	}
	err = b.Add(Point{
		Measurement: "cpu",
		Tags:        map[string]string{"hostname": "override"},
		Fields:      map[string]Value{"v": Float(2)},
		Time:        ts(200),
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("len %d", b.Len())
	}
	if b.Size() == 0 {
		t.Fatal("size 0")
	}
	pts, err := Parse(b.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].Tags["hostname"] != "h1" || pts[0].Tags["cluster"] != "test" {
		t.Errorf("default tags not applied: %v", pts[0].Tags)
	}
	if !pts[0].Time.Equal(now) {
		t.Errorf("timestamp not assigned: %v", pts[0].Time)
	}
	if pts[1].Tags["hostname"] != "override" {
		t.Errorf("explicit tag should win: %v", pts[1].Tags)
	}
	if !pts[1].Time.Equal(ts(200)) {
		t.Errorf("explicit time should win: %v", pts[1].Time)
	}
	if b.Len() != 0 || b.Flush() != nil {
		t.Error("flush should reset")
	}
}

func TestBatchAddInvalid(t *testing.T) {
	b := NewBatch(nil)
	if err := b.Add(Point{}, ts(1)); err == nil {
		t.Fatal("expected error")
	}
	if b.Len() != 0 {
		t.Fatal("invalid point buffered")
	}
}

func TestBatchConcurrent(t *testing.T) {
	b := NewBatch(nil)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				_ = b.Add(Point{Measurement: "m", Fields: map[string]Value{"v": Int(int64(i))}}, ts(int64(i)))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	pts, err := Parse(b.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 800 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestParseErrorMessageTruncation(t *testing.T) {
	long := strings.Repeat("x", 200)
	_, err := ParseLine(long)
	if err == nil {
		t.Fatal("expected error")
	}
	if len(err.Error()) > 200 {
		t.Errorf("error message too long: %d bytes", len(err.Error()))
	}
}

func TestAppendFieldsSortedAndReusable(t *testing.T) {
	p := Point{
		Measurement: "m",
		Fields: map[string]Value{
			"zeta":  Float(1),
			"alpha": Int(2),
			"mid":   String("x"),
			"beta":  Bool(true),
		},
	}
	var buf []Field
	for round := 0; round < 3; round++ {
		buf = p.AppendFields(buf[:0])
		if len(buf) != 4 {
			t.Fatalf("round %d: %d fields", round, len(buf))
		}
		want := []string{"alpha", "beta", "mid", "zeta"}
		for i, f := range buf {
			if f.Key != want[i] {
				t.Fatalf("round %d: field %d = %q, want %q (sorted)", round, i, f.Key, want[i])
			}
			if !f.Value.Equal(p.Fields[f.Key]) {
				t.Fatalf("round %d: field %q value mismatch", round, f.Key)
			}
		}
	}
	// Appending after existing entries must only sort the new tail.
	buf = Point{Fields: map[string]Value{"a": Float(9)}}.AppendFields(buf)
	if len(buf) != 5 || buf[4].Key != "a" {
		t.Fatalf("append to non-empty dst: %+v", buf)
	}
	if none := (Point{}).AppendFields(nil); len(none) != 0 {
		t.Fatalf("no fields should append nothing, got %+v", none)
	}
}

// TestParseAllocsPerPoint pins the allocation budget of the text parse
// on the shape a replicated collector line has after enrichment (9 tags,
// 4 fields, no escapes): the line copy, the batch slice and the two maps —
// not one string per token.
func TestParseAllocsPerPoint(t *testing.T) {
	const points = 100
	var body []byte
	for i := 0; i < points; i++ {
		body = fmt.Appendf(body, "cpu,cluster=emmy,hostname=h%03d,jobid=4711.master,project=p1,queue=batch,rack=r07,socket=1,type=node,username=user2 idle=91.5,iowait=0.25,system=3.125,user=5.125 %d\n",
			i, 1501804800000000000+int64(i))
	}
	pts, err := Parse(body)
	if err != nil || len(pts) != points || len(pts[0].Tags) != 9 || len(pts[0].Fields) != 4 {
		t.Fatalf("fixture: %d points, err %v", len(pts), err)
	}
	perPoint := testing.AllocsPerRun(20, func() { _, _ = Parse(body) }) / points
	if perPoint > 8 {
		t.Fatalf("Parse allocates %.1f times per point, want <= 8", perPoint)
	}
	t.Logf("%.2f allocs/point", perPoint)
}
