package hpm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Formula is a compiled arithmetic expression over counter and environment
// variables, the evaluator behind the METRICS section of a LIKWID
// performance group file. Supported syntax:
//
//	numbers      1.0E-06, 64, .5
//	variables    PMC0, FIXC1, time, inverseClock (letters, digits, '_')
//	operators    + - * / with usual precedence, unary minus
//	parentheses  ( )
//
// Division by zero evaluates to 0 rather than Inf: LIKWID clamps metrics of
// empty measurement intervals, and the monitoring stack depends on that
// (an idle interval must report 0 MFLOP/s, not NaN, for threshold rules).
type Formula struct {
	src string
	rpn []fToken
}

type fTokenKind uint8

const (
	fNum fTokenKind = iota
	fVar
	fOp
)

type fToken struct {
	kind fTokenKind
	num  float64
	name string
	op   byte
}

// CompileFormula parses the expression into reverse Polish notation using
// the shunting-yard algorithm.
func CompileFormula(src string) (*Formula, error) {
	toks, err := lexFormula(src)
	if err != nil {
		return nil, fmt.Errorf("hpm: formula %q: %w", src, err)
	}
	var out, ops []fToken
	prec := func(op byte) int {
		switch op {
		case 'u': // unary minus
			return 3
		case '*', '/':
			return 2
		default:
			return 1
		}
	}
	expectOperand := true
	for _, t := range toks {
		switch t.kind {
		case fNum, fVar:
			if !expectOperand {
				return nil, fmt.Errorf("hpm: formula %q: missing operator", src)
			}
			out = append(out, t)
			expectOperand = false
		case fOp:
			switch t.op {
			case '(':
				ops = append(ops, t)
				expectOperand = true
			case ')':
				if expectOperand {
					return nil, fmt.Errorf("hpm: formula %q: empty parentheses", src)
				}
				for {
					if len(ops) == 0 {
						return nil, fmt.Errorf("hpm: formula %q: unbalanced ')'", src)
					}
					top := ops[len(ops)-1]
					ops = ops[:len(ops)-1]
					if top.op == '(' {
						break
					}
					out = append(out, top)
				}
			default:
				op := t.op
				if expectOperand {
					if op == '-' {
						op = 'u' // unary minus
					} else if op == '+' {
						continue // unary plus is a no-op
					} else {
						return nil, fmt.Errorf("hpm: formula %q: operator %q needs an operand", src, t.op)
					}
				}
				for len(ops) > 0 {
					top := ops[len(ops)-1]
					if top.op == '(' || prec(top.op) < prec(op) || (op == 'u' && top.op == 'u') {
						break
					}
					out = append(out, top)
					ops = ops[:len(ops)-1]
				}
				ops = append(ops, fToken{kind: fOp, op: op})
				expectOperand = true
			}
		}
	}
	if expectOperand {
		return nil, fmt.Errorf("hpm: formula %q: trailing operator", src)
	}
	for len(ops) > 0 {
		top := ops[len(ops)-1]
		ops = ops[:len(ops)-1]
		if top.op == '(' {
			return nil, fmt.Errorf("hpm: formula %q: unbalanced '('", src)
		}
		out = append(out, top)
	}
	f := &Formula{src: src, rpn: out}
	// Validate stack discipline once at compile time.
	depth := 0
	for _, t := range f.rpn {
		switch {
		case t.kind != fOp:
			depth++
		case t.op == 'u':
			if depth < 1 {
				return nil, fmt.Errorf("hpm: formula %q: malformed", src)
			}
		default:
			if depth < 2 {
				return nil, fmt.Errorf("hpm: formula %q: malformed", src)
			}
			depth--
		}
	}
	if depth != 1 {
		return nil, fmt.Errorf("hpm: formula %q: malformed", src)
	}
	return f, nil
}

func lexFormula(src string) ([]fToken, error) {
	var toks []fToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '+' || c == '-' || c == '*' || c == '/' || c == '(' || c == ')':
			toks = append(toks, fToken{kind: fOp, op: c})
			i++
		case c >= '0' && c <= '9' || c == '.':
			j := i
			seenExp := false
			for j < len(src) {
				d := src[j]
				if d >= '0' && d <= '9' || d == '.' {
					j++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp {
					// Exponent, possibly signed.
					seenExp = true
					j++
					if j < len(src) && (src[j] == '+' || src[j] == '-') {
						j++
					}
					continue
				}
				break
			}
			n, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("bad number %q", src[i:j])
			}
			toks = append(toks, fToken{kind: fNum, num: n})
			i = j
		case isVarChar(c):
			j := i
			for j < len(src) && isVarChar(src[j]) {
				j++
			}
			toks = append(toks, fToken{kind: fVar, name: src[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("unexpected byte %q", c)
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty formula")
	}
	return toks, nil
}

func isVarChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':'
}

// Variables lists the distinct variable names used by the formula.
func (f *Formula) Variables() []string {
	seen := map[string]struct{}{}
	var out []string
	for _, t := range f.rpn {
		if t.kind == fVar {
			if _, ok := seen[t.name]; !ok {
				seen[t.name] = struct{}{}
				out = append(out, t.name)
			}
		}
	}
	return out
}

// Eval computes the formula. Unknown variables are an error; division by
// zero yields 0 (see type doc); NaN operands propagate.
func (f *Formula) Eval(vars map[string]float64) (float64, error) {
	stack := make([]float64, 0, 8)
	for _, t := range f.rpn {
		switch t.kind {
		case fNum:
			stack = append(stack, t.num)
		case fVar:
			v, ok := vars[t.name]
			if !ok {
				return 0, fmt.Errorf("hpm: formula %q: unknown variable %q", f.src, t.name)
			}
			stack = append(stack, v)
		case fOp:
			if t.op == 'u' {
				stack[len(stack)-1] = -stack[len(stack)-1]
				continue
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			var r float64
			switch t.op {
			case '+':
				r = a + b
			case '-':
				r = a - b
			case '*':
				r = a * b
			case '/':
				if b == 0 {
					r = 0
				} else {
					r = a / b
				}
			}
			stack[len(stack)-1] = r
		}
	}
	v := stack[0]
	if math.IsInf(v, 0) {
		// Overflow in intermediate arithmetic: clamp like LIKWID's output.
		return 0, nil
	}
	return v, nil
}

// MustCompileFormula compiles or panics; for the built-in group tables.
func MustCompileFormula(src string) *Formula {
	f, err := CompileFormula(src)
	if err != nil {
		panic(err)
	}
	return f
}

// String implements fmt.Stringer.
func (f *Formula) String() string { return "Formula(" + f.src + ")" }

// rpnString renders the compiled form, used in tests.
func (f *Formula) rpnString() string {
	parts := make([]string, len(f.rpn))
	for i, t := range f.rpn {
		switch t.kind {
		case fNum:
			parts[i] = strconv.FormatFloat(t.num, 'g', -1, 64)
		case fVar:
			parts[i] = t.name
		case fOp:
			parts[i] = string(t.op)
		}
	}
	return strings.Join(parts, " ")
}
