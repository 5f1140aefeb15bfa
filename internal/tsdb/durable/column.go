package durable

// The column shape (DESIGN.md §8): the one declaration of the typed arrays
// a field's values live in, shared by the in-memory runs of the tsdb
// layer, its query views and the checkpoint codec of this package — so a
// column travels from the write path to the checkpoint file and back as
// the same struct, never copied field by field.

import (
	"slices"

	"repro/internal/lineproto"
)

// Arm names one of the four typed arrays of a Values.
type Arm uint8

const (
	ArmFloats Arm = iota // KindFloat
	ArmInts              // KindInt and KindBool (booleans as 0/1)
	ArmStrIDs            // KindString: ids into the measurement's interned strings
	ArmVals              // a field written with conflicting kinds
)

// ArmOf decides which typed array holds a column of the given kind. It is
// the only place that maps (kind, mixed) to storage; everything that
// touches the arrays switches on its result.
func ArmOf(kind lineproto.ValueKind, mixed bool) Arm {
	switch {
	case mixed:
		return ArmVals
	case kind == lineproto.KindFloat:
		return ArmFloats
	case kind == lineproto.KindString:
		return ArmStrIDs
	default:
		return ArmInts
	}
}

// Values holds the rows of one column in exactly one of four arms: the arm
// Arm() names. Absent rows (the owner keeps the presence bitmap) hold a
// zero placeholder. Kind is the element kind while !Mixed; a column whose
// field arrived with conflicting kinds is promoted to Mixed and keeps each
// value boxed — rare, and the only arm the vectorised aggregation sweeps
// do not read directly.
type Values struct {
	Kind  lineproto.ValueKind
	Mixed bool

	Floats []float64
	Ints   []int64
	StrIDs []uint32
	Vals   []lineproto.Value
}

// Arm returns the arm holding the rows.
func (v *Values) Arm() Arm { return ArmOf(v.Kind, v.Mixed) }

// At reconstructs the value of row i; strs resolves string ids.
func (v *Values) At(i int, strs []string) lineproto.Value {
	switch v.Arm() {
	case ArmVals:
		return v.Vals[i]
	case ArmFloats:
		return lineproto.Float(v.Floats[i])
	case ArmStrIDs:
		return lineproto.String(strs[v.StrIDs[i]])
	}
	if v.Kind == lineproto.KindBool {
		return lineproto.Bool(v.Ints[i] != 0)
	}
	return lineproto.Int(v.Ints[i])
}

// Slice returns rows [lo, hi) as a view sharing v's backing array; the
// idle arms of the result are nil.
func (v *Values) Slice(lo, hi int) Values {
	out := Values{Kind: v.Kind, Mixed: v.Mixed}
	switch v.Arm() {
	case ArmVals:
		out.Vals = v.Vals[lo:hi]
	case ArmFloats:
		out.Floats = v.Floats[lo:hi]
	case ArmStrIDs:
		out.StrIDs = v.StrIDs[lo:hi]
	default:
		out.Ints = v.Ints[lo:hi]
	}
	return out
}

// CloneRange returns rows [lo, hi) in a freshly allocated array.
func (v *Values) CloneRange(lo, hi int) Values {
	out := v.Slice(lo, hi)
	// Slice left the idle arms nil, so this copies one array.
	out.Floats = slices.Clone(out.Floats)
	out.Ints = slices.Clone(out.Ints)
	out.StrIDs = slices.Clone(out.StrIDs)
	out.Vals = slices.Clone(out.Vals)
	return out
}

// Pad appends k zero placeholders.
func (v *Values) Pad(k int) {
	switch v.Arm() {
	case ArmVals:
		v.Vals = append(v.Vals, make([]lineproto.Value, k)...)
	case ArmFloats:
		v.Floats = append(v.Floats, make([]float64, k)...)
	case ArmStrIDs:
		v.StrIDs = append(v.StrIDs, make([]uint32, k)...)
	default:
		v.Ints = append(v.Ints, make([]int64, k)...)
	}
}

// Append extends v with every row of src, which must hold the same arm.
// Only appends: a reader holding v's previous, shorter header is unaffected.
func (v *Values) Append(src *Values) {
	switch v.Arm() {
	case ArmVals:
		v.Vals = append(v.Vals, src.Vals...)
	case ArmFloats:
		v.Floats = append(v.Floats, src.Floats...)
	case ArmStrIDs:
		v.StrIDs = append(v.StrIDs, src.StrIDs...)
	default:
		v.Ints = append(v.Ints, src.Ints...)
	}
}

// Take replaces v's rows with a freshly allocated len(take)-row selection
// from a and b, which hold v's arm: row r is row take[r] of a when
// take[r] >= 0 and row ^take[r] of b otherwise. The zero Values stands for
// a side with no values: its rows come out as zero placeholders. One
// source with an index permutation is a gather; two sources with a merge
// order is one column of a run merge.
func (v *Values) Take(a, b Values, take []int32) {
	switch v.Arm() {
	case ArmVals:
		v.Vals = takeRows(a.Vals, b.Vals, take)
	case ArmFloats:
		v.Floats = takeRows(a.Floats, b.Floats, take)
	case ArmStrIDs:
		v.StrIDs = takeRows(a.StrIDs, b.StrIDs, take)
	default:
		v.Ints = takeRows(a.Ints, b.Ints, take)
	}
}

func takeRows[T any](a, b []T, take []int32) []T {
	out := make([]T, len(take))
	for r, t := range take {
		if t >= 0 {
			if a != nil {
				out[r] = a[t]
			}
		} else if b != nil {
			out[r] = b[^t]
		}
	}
	return out
}
