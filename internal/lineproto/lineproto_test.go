package lineproto

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func ts(ns int64) time.Time { return time.Unix(0, ns).UTC() }

func TestEncodeBasic(t *testing.T) {
	p := NewPoint(
		"cpu_load",
		map[string]string{"hostname": "h1", "jobid": "42"},
		map[string]Value{"value": Float(1.5)},
		ts(1000),
	)
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
	p := NewPoint(
		"m",
		map[string]string{"z": "1", "a": "2", "m": "3"},
		map[string]Value{"zz": Int(1), "aa": Int(2)},
		ts(7),
	)
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
	p := NewPoint(
		"my measure,ment",
		map[string]string{"ta g": "va,l=ue"},
		map[string]Value{"f,= ield": Float(1)},
		ts(1),
	)
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
	p := NewPoint(
		"events",
		map[string]string{"hostname": "h1"},
		map[string]Value{"text": String(`job "start" via \curl`)},
		ts(5),
	)
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
	if got := fieldOf(back, "text").StringVal(); got != `job "start" via \curl` {
		t.Fatalf("string round trip got %q", got)
	}
}

func TestEncodeValueKinds(t *testing.T) {
	p := NewPoint(
		"m",
		nil,
		map[string]Value{
			"f": Float(2.25),
			"i": Int(-7),
			"b": Bool(true),
			"s": String("x"),
		},
		ts(9),
	)
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
	p := NewPoint("m", nil, map[string]Value{"v": Float(1)}, time.Time{})
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
		NewPoint("m", nil, map[string]Value{"": Float(1)}, time.Time{}),                         // empty field key
		NewPoint("m", map[string]string{"": "v"}, map[string]Value{"f": Float(1)}, time.Time{}), // empty tag key
		NewPoint("m", map[string]string{"t": ""}, map[string]Value{"f": Float(1)}, time.Time{}), // empty tag value
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
	if p.Tag("hostname") != "node07" || p.Tag("jobid") != "1234.master" {
		t.Errorf("tags %v", p.Tags)
	}
	if v := fieldOf(p, "mflops"); v.Kind() != KindFloat || v.FloatVal() != 2345.5 {
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
	if fieldOf(p, "total").Kind() != KindInt || fieldOf(p, "total").IntVal() != 8 {
		t.Errorf("total %v", fieldOf(p, "total"))
	}
	if fieldOf(p, "swapped").BoolVal() {
		t.Errorf("swapped should be false")
	}
	if fieldOf(p, "state").StringVal() != "ok" {
		t.Errorf("state %v", fieldOf(p, "state"))
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
		if !fieldOf(p, "v").BoolVal() {
			t.Errorf("%s parsed as false", s)
		}
	}
	for _, s := range []string{"f", "F", "false", "False", "FALSE"} {
		p, err := ParseLine("m v=" + s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if fieldOf(p, "v").BoolVal() {
			t.Errorf("%s parsed as true", s)
		}
	}
}

func TestParseScientificFloat(t *testing.T) {
	p, err := ParseLine("m v=1.5e9 1")
	if err != nil {
		t.Fatal(err)
	}
	if fieldOf(p, "v").FloatVal() != 1.5e9 {
		t.Errorf("got %v", fieldOf(p, "v"))
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

// TestValueOnePayload: the numeric kinds share one 8-byte payload, so a
// Value is 32 bytes and a Field 48 — the parse field arena and every
// out-of-order field shift move that much — and each accessor decodes the
// payload by kind: a float -0 is false and equals 0, an int's sign
// survives, a float never reads as an int's bits.
func TestValueOnePayload(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Field{}); got != 48 {
		t.Errorf("Field is %d bytes, want 48", got)
	}
	negZero := Float(math.Copysign(0, -1))
	if negZero.BoolVal() || !negZero.Equal(Float(0)) || negZero.StringVal() != "-0" {
		t.Errorf("-0: BoolVal %v, equals 0 %v, text %q", negZero.BoolVal(), negZero.Equal(Float(0)), negZero.StringVal())
	}
	if !Float(math.NaN()).BoolVal() || Float(math.NaN()).Equal(Float(1)) {
		t.Error("NaN: true as a bool, unequal to a number")
	}
	if v := Int(-7); v.IntVal() != -7 || v.FloatVal() != -7 || !v.BoolVal() || v.Equal(Float(-7)) {
		t.Errorf("int -7 reads %d, %v, %v", v.IntVal(), v.FloatVal(), v.BoolVal())
	}
	if v := Float(-2.5); v.IntVal() != -2 || v.FloatVal() != -2.5 || v.Equal(Int(-2)) {
		t.Errorf("float -2.5 reads %d, %v", v.IntVal(), v.FloatVal())
	}
	if v := (Value{}); v.Kind() != KindFloat || v.FloatVal() != 0 || v.BoolVal() || !v.Equal(Float(0)) {
		t.Error("the zero Value is the float 0")
	}
	for _, c := range []struct {
		v    Value
		want string
	}{{Float(-0.5), "-0.5"}, {Int(-9), "-9i"}, {Bool(true), "true"}, {Bool(false), "false"}, {String(`a"b`), `"a\"b"`}} {
		if got := string(appendValue(nil, c.v)); got != c.want {
			t.Errorf("appendValue(%v) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestPointEqual(t *testing.T) {
	base := NewPoint(
		"m",
		map[string]string{"a": "1"},
		map[string]Value{"f": Float(1)},
		ts(1),
	)
	diffs := []Point{
		{Measurement: "x", Tags: base.Tags, Fields: base.Fields, Time: base.Time},
		NewPoint("m", map[string]string{"a": "2"}, map[string]Value{"f": Float(1)}, base.Time),
		NewPoint("m", map[string]string{"b": "1"}, map[string]Value{"f": Float(1)}, base.Time),
		{Measurement: "m", Tags: base.Tags, Fields: []Field{{"f", Float(2)}}, Time: base.Time},
		{Measurement: "m", Tags: base.Tags, Fields: []Field{{"g", Float(1)}}, Time: base.Time},
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
	tags := map[string]string{}
	for i := r.Intn(4); i > 0; i-- {
		tags[randStr(false)] = randStr(false)
	}
	fields := map[string]Value{}
	nf := r.Intn(4) + 1
	for i := 0; i < nf; i++ {
		k := randStr(false)
		switch r.Intn(4) {
		case 0:
			fields[k] = Float(math.Round(r.NormFloat64()*1e6) / 1e3)
		case 1:
			fields[k] = Int(r.Int63() - r.Int63())
		case 2:
			fields[k] = Bool(r.Intn(2) == 0)
		default:
			fields[k] = String(randStr(true))
		}
	}
	return NewPoint(randStr(false), tags, fields, time.Unix(0, r.Int63()).UTC())
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
	err := b.Add(NewPoint("cpu", nil, map[string]Value{"v": Float(1)}, time.Time{}), now)
	if err != nil {
		t.Fatal(err)
	}
	err = b.Add(NewPoint(
		"cpu",
		map[string]string{"hostname": "override"},
		map[string]Value{"v": Float(2)},
		ts(200),
	), now)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("len %d", b.Len())
	}
	if len(b.buf) == 0 {
		t.Fatal("size 0")
	}
	pts, err := Parse(b.Flush())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].Tag("hostname") != "h1" || pts[0].Tag("cluster") != "test" {
		t.Errorf("default tags not applied: %v", pts[0].Tags)
	}
	if !pts[0].Time.Equal(now) {
		t.Errorf("timestamp not assigned: %v", pts[0].Time)
	}
	if pts[1].Tag("hostname") != "override" {
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
				_ = b.Add(NewPoint("m", nil, map[string]Value{"v": Int(int64(i))}, time.Time{}), ts(int64(i)))
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

// TestPointShape: the three ways to build a point keep tags and fields in
// strictly ascending key order — NewPoint from maps, Parse whatever order
// the line has, MergeTags with the point's own value winning — and
// Validate refuses a point built any other way that is not.
func TestPointShape(t *testing.T) {
	p := NewPoint("m", map[string]string{"z": "1", "a": "2", "m": "3"},
		map[string]Value{"zeta": Float(1), "alpha": Int(2), "mid": String("x"), "beta": Bool(true)}, time.Time{})
	parsed, err := ParseLine(`m,z=1,m=3,a=2 mid="x",zeta=1,beta=t,alpha=2i`)
	if err != nil || !parsed.Equal(p) {
		t.Fatalf("parsed %+v (%v), want %+v", parsed, err, p)
	}
	wantTags := []Tag{{"a", "2"}, {"m", "3"}, {"z", "1"}}
	if !slices.Equal(p.Tags, wantTags) {
		t.Fatalf("tags %v, want %v", p.Tags, wantTags)
	}
	var keys []string
	for _, f := range p.Fields {
		keys = append(keys, f.Key)
	}
	if !slices.Equal(keys, []string{"alpha", "beta", "mid", "zeta"}) {
		t.Fatalf("field keys %v", keys)
	}
	if p.Tag("m") != "3" || p.Tag("b") != "" || fieldOf(p, "alpha").IntVal() != 2 || fieldOf(p, "gamma").Kind() != KindFloat {
		t.Fatalf("lookups: %q %q %v %v", p.Tag("m"), p.Tag("b"), fieldOf(p, "alpha"), fieldOf(p, "gamma"))
	}

	merged := MergeTags(nil, []Tag{{"hostname", "own"}, {"z", "9"}}, []Tag{{"a", "job"}, {"hostname", "job"}, {"jobid", "7"}})
	want := []Tag{{"a", "job"}, {"hostname", "own"}, {"jobid", "7"}, {"z", "9"}}
	if !slices.Equal(merged, want) {
		t.Fatalf("merged %v, want %v", merged, want)
	}
	if got := MergeTags(nil, nil, want); !slices.Equal(got, want) {
		t.Fatalf("merge into no tags: %v", got)
	}

	for name, bad := range map[string]Point{
		"unsorted tags":   {Measurement: "m", Tags: []Tag{{"b", "1"}, {"a", "1"}}, Fields: p.Fields},
		"repeated tag":    {Measurement: "m", Tags: []Tag{{"a", "1"}, {"a", "2"}}, Fields: p.Fields},
		"unsorted fields": {Measurement: "m", Fields: []Field{{"b", Float(1)}, {"a", Float(1)}}},
		"repeated field":  {Measurement: "m", Fields: []Field{{"a", Float(1)}, {"a", Float(2)}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		}
		if _, err := EncodePoint(bad); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestParseAllocsPerPoint pins the allocation budget of the text parse
// on the shape a replicated collector line has after enrichment (9 tags,
// 4 fields, no escapes): the body's one string, the batch slice and the
// tag and field arenas — four per body, not one per line or per token.
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
	if perPoint > 0.05 {
		t.Fatalf("Parse allocates %.2f times per point, want <= 0.05", perPoint)
	}
	t.Logf("%.2f allocs/point", perPoint)
}

// TestParseWideThenNarrowIsLinear: the arenas are sized from a line's
// shape for the lines left, but a wide line ahead of many narrow ones must
// not reserve its width for all of them. What Parse allocates stays
// linear in the body: about 150 bytes a point and its field need per
// six-byte line, here, and a block of slack.
func TestParseWideThenNarrowIsLinear(t *testing.T) {
	const wide, narrow = 64, 10000
	body := []byte("m")
	for i := 0; i < wide; i++ {
		body = fmt.Appendf(body, ",t%02d=v", i)
	}
	for i := 0; i < wide; i++ {
		body = fmt.Appendf(body, "%cf%02d=1", " ,"[min(i, 1)], i)
	}
	body = append(body, '\n')
	for i := 0; i < narrow; i++ {
		body = append(body, "m v=1\n"...)
	}
	pts, err := Parse(body)
	if err != nil || len(pts) != 1+narrow || len(pts[0].Tags) != wide || len(pts[0].Fields) != wide {
		t.Fatalf("fixture: %d points, err %v", len(pts), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = Parse(body)
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(body))
	if perByte > 40 {
		t.Fatalf("Parse allocates %.0f bytes per body byte, want <= 40", perByte)
	}
	t.Logf("%.1f bytes allocated per body byte", perByte)
}

// fieldOf returns p's value of the field key, the zero Value when it has none.
func fieldOf(p Point, key string) Value {
	for _, f := range p.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return Value{}
}
