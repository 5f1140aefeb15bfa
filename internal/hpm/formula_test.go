package hpm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, src string, vars map[string]float64) float64 {
	t.Helper()
	f, err := CompileFormula(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := f.Eval(vars)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestFormulaBasics(t *testing.T) {
	cases := []struct {
		src  string
		vars map[string]float64
		want float64
	}{
		{"1+2", nil, 3},
		{"2*3+4", nil, 10},
		{"2+3*4", nil, 14},
		{"(2+3)*4", nil, 20},
		{"10/4", nil, 2.5},
		{"10-4-3", nil, 3}, // left associative
		{"100/10/5", nil, 2},
		{"-3+5", nil, 2},
		{"-(3+5)", nil, -8},
		{"--4", nil, 4},
		{"+5", nil, 5},
		{"2*-3", nil, -6},
		{"1.0E-06*2000000", nil, 2},
		{"1.5e3", nil, 1500},
		{".5*4", nil, 2},
		{"A+B*C", map[string]float64{"A": 1, "B": 2, "C": 3}, 7},
		{"FIXC1/FIXC0", map[string]float64{"FIXC1": 10, "FIXC0": 4}, 2.5},
	}
	for _, c := range cases {
		if got := evalOK(t, c.src, c.vars); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestFormulaLikwidMetrics(t *testing.T) {
	// The actual FLOPS_DP formula with plausible counter values.
	vars := map[string]float64{
		"PMC0": 1e9, // SSE packed DP
		"PMC1": 5e8, // scalar DP
		"PMC2": 2e9, // AVX packed DP
		"time": 10,
	}
	got := evalOK(t, "1.0E-06*(PMC0*2.0+PMC1+PMC2*4.0)/time", vars)
	want := 1e-6 * (1e9*2 + 5e8 + 2e9*4) / 10
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestFormulaDivisionByZeroClampsToZero(t *testing.T) {
	if got := evalOK(t, "5/0", nil); got != 0 {
		t.Fatalf("5/0 = %v, want 0", got)
	}
	if got := evalOK(t, "A/time", map[string]float64{"A": 100, "time": 0}); got != 0 {
		t.Fatalf("A/0 = %v, want 0", got)
	}
}

func TestFormulaUnknownVariable(t *testing.T) {
	f := MustCompileFormula("A+B")
	if _, err := f.Eval(map[string]float64{"A": 1}); err == nil {
		t.Fatal("expected unknown-variable error")
	}
}

func TestFormulaCompileErrors(t *testing.T) {
	bad := []string{
		"", "   ", "1+", "*3", "(1+2", "1+2)", "()", "1 2", "A B",
		"1..2", "1+*2", "5%3", "foo(2)", "1e", "£",
	}
	for _, src := range bad {
		if _, err := CompileFormula(src); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

func TestFormulaVariables(t *testing.T) {
	f := MustCompileFormula("1.0E-06*(PMC0+PMC1)*64.0/time+PMC0")
	vars := f.Variables()
	want := map[string]bool{"PMC0": true, "PMC1": true, "time": true}
	if len(vars) != 3 {
		t.Fatalf("vars %v", vars)
	}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected var %q", v)
		}
	}
}

func TestFormulaStringers(t *testing.T) {
	f := MustCompileFormula("1+2*3")
	if f.src != "1+2*3" {
		t.Error("source")
	}
	if f.String() != "Formula(1+2*3)" {
		t.Error("stringer")
	}
	if f.rpnString() != "1 2 3 * +" {
		t.Errorf("rpn %q", f.rpnString())
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompileFormula("((")
}

// randomExpr builds a random expression tree and its expected value.
type exprNode struct {
	s string
	v float64
}

func randomExpr(r *rand.Rand, depth int, vars map[string]float64) exprNode {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 && len(vars) > 0 {
			names := []string{"A", "B", "C"}
			n := names[r.Intn(len(names))]
			return exprNode{s: n, v: vars[n]}
		}
		f := math.Round(r.Float64()*200) / 10
		return exprNode{s: formatNum(f), v: f}
	}
	a := randomExpr(r, depth-1, vars)
	b := randomExpr(r, depth-1, vars)
	switch r.Intn(4) {
	case 0:
		return exprNode{s: "(" + a.s + "+" + b.s + ")", v: a.v + b.v}
	case 1:
		return exprNode{s: "(" + a.s + "-" + b.s + ")", v: a.v - b.v}
	case 2:
		return exprNode{s: "(" + a.s + "*" + b.s + ")", v: a.v * b.v}
	default:
		v := 0.0
		if b.v != 0 {
			v = a.v / b.v
		}
		return exprNode{s: "(" + a.s + "/" + b.s + ")", v: v}
	}
}

func formatNum(f float64) string {
	// strconv via fmt not needed; use Sprintf-free approach in tests is
	// overkill — keep simple.
	return trimFloat(f)
}

func trimFloat(f float64) string {
	s := []byte{}
	if f < 0 {
		s = append(s, '-')
		f = -f
	}
	whole := int64(f)
	frac := int64(math.Round((f - float64(whole)) * 10))
	if frac == 10 {
		whole++
		frac = 0
	}
	s = appendInt(s, whole)
	if frac > 0 {
		s = append(s, '.')
		s = appendInt(s, frac)
	}
	return string(s)
}

func appendInt(b []byte, n int64) []byte {
	if n == 0 {
		return append(b, '0')
	}
	var digits []byte
	for n > 0 {
		digits = append(digits, byte('0'+n%10))
		n /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b = append(b, digits[i])
	}
	return b
}

// Property: the evaluator agrees with a reference evaluation on random
// expression trees.
func TestFormulaRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vars := map[string]float64{"A": 3, "B": -1.5, "C": 10}
	f := func(seed int64) bool {
		_ = seed
		e := randomExpr(r, 4, vars)
		c, err := CompileFormula(e.s)
		if err != nil {
			t.Logf("compile %q: %v", e.s, err)
			return false
		}
		got, err := c.Eval(vars)
		if err != nil {
			t.Logf("eval %q: %v", e.s, err)
			return false
		}
		if math.IsInf(e.v, 0) {
			return got == 0 // evaluator clamps overflow
		}
		if math.Abs(e.v) > 1e15 {
			return true // reference itself is numerically shaky there
		}
		diff := math.Abs(got - e.v)
		scale := math.Max(1, math.Abs(e.v))
		if diff/scale > 1e-9 {
			t.Logf("%q: got %v want %v", e.s, got, e.v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
