package tsdb

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/lineproto"
)

// AggFunc names an aggregation function applied to a column of values.
type AggFunc string

// Supported aggregators. They mirror the InfluxQL functions the LMS
// dashboards and analysis queries use.
const (
	AggNone       AggFunc = ""
	AggCount      AggFunc = "count"
	AggSum        AggFunc = "sum"
	AggMean       AggFunc = "mean"
	AggMin        AggFunc = "min"
	AggMax        AggFunc = "max"
	AggFirst      AggFunc = "first"
	AggLast       AggFunc = "last"
	AggSpread     AggFunc = "spread"
	AggStddev     AggFunc = "stddev"
	AggMedian     AggFunc = "median"
	AggPercentile AggFunc = "percentile"
	AggDerivative AggFunc = "derivative" // per-second first derivative
)

// ValidAgg reports whether name is a known aggregator.
func ValidAgg(name string) bool {
	switch AggFunc(name) {
	case AggCount, AggSum, AggMean, AggMin, AggMax, AggFirst, AggLast,
		AggSpread, AggStddev, AggMedian, AggPercentile, AggDerivative:
		return true
	}
	return false
}

func sum(nums []float64) float64 {
	// Kahan summation keeps long-window aggregates stable.
	var s, c float64
	for _, v := range nums {
		s, c = kahanStep(s, c, v)
	}
	return s
}

// kahanStep adds v to the compensated accumulator (s, c).
func kahanStep(s, c, v float64) (float64, float64) {
	y := v - c
	t := s + y
	c = (t - s) - y
	return t, c
}

// percentileSorted returns the p-th percentile (0..100) over an
// already-sorted slice, using linear interpolation between closest ranks.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func rangeNS(start, end time.Time) (int64, int64) {
	startNS := int64(minInt64)
	endNS := int64(maxInt64)
	if !start.IsZero() {
		startNS = start.UnixNano()
	}
	if !end.IsZero() {
		endNS = end.UnixNano()
	}
	return startNS, endNS
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// --- mergeable partial aggregates --------------------------------------
//
// The lock-light read path (select.go) pushes aggregation down to the
// per-series point runs: each run folds into a partial, and partials merge
// in a fixed order. count/sum/min/max/mean (and spread, first/last,
// derivative) merge exactly from O(1) state; stddev/median/percentile
// retain their values as sorted runs and merge those. Because the merge
// order is data-determined, the result is independent of how many workers
// computed the partials.

// partialMode selects the state a partial has to carry for its aggregator.
type partialMode int

const (
	modeCount partialMode = iota
	modeFirstLast
	modeDerivative
	modeSum    // sum, mean
	modeMinMax // min, max, spread
	modeVals   // stddev, median, percentile
)

func modeOf(agg AggFunc) partialMode {
	switch agg {
	case AggCount:
		return modeCount
	case AggFirst, AggLast:
		return modeFirstLast
	case AggDerivative:
		return modeDerivative
	case AggSum, AggMean:
		return modeSum
	case AggMin, AggMax, AggSpread:
		return modeMinMax
	default: // AggStddev, AggMedian, AggPercentile
		return modeVals
	}
}

// partial is the mergeable state of one aggregator over one point run.
type partial struct {
	agg  AggFunc
	pct  float64
	mode partialMode

	n         int64 // observations (modeCount: any kind, otherwise numeric)
	sum, comp float64
	min, max  float64
	hasNum    bool

	hasAny          bool
	firstT, lastT   int64
	firstV, lastV   lineproto.Value
	dFirstT, dLastT int64
	dFirst, dLast   float64

	vals []float64 // time-ordered while observing, sorted by finalize
}

// observe folds one value in. t must be non-decreasing within a run.
func (p *partial) observe(t int64, v lineproto.Value) {
	if p.mode == modeCount {
		p.n++
		return
	}
	if p.mode == modeFirstLast {
		if !p.hasAny || t < p.firstT {
			p.firstT, p.firstV = t, v
		}
		if !p.hasAny || t >= p.lastT {
			p.lastT, p.lastV = t, v
		}
		p.hasAny = true
		return
	}
	if v.Kind() == lineproto.KindString {
		return
	}
	f := v.FloatVal()
	switch p.mode {
	case modeDerivative:
		if !p.hasNum {
			p.dFirstT, p.dFirst = t, f
		}
		p.dLastT, p.dLast = t, f
		p.n++
		p.hasNum = true
	case modeSum:
		p.sum, p.comp = kahanStep(p.sum, p.comp, f)
		p.n++
		p.hasNum = true
	case modeMinMax:
		if !p.hasNum || f < p.min {
			p.min = f
		}
		if !p.hasNum || f > p.max {
			p.max = f
		}
		p.hasNum = true
	case modeVals:
		p.vals = append(p.vals, f)
	}
}

// finalize prepares a run partial for merging (sorts the value run).
func (p *partial) finalize() {
	if p.mode == modeVals {
		sort.Float64s(p.vals)
	}
}

// merge folds a finalized partial o into p. On timestamp ties the earlier
// merge position wins "first" and the later one wins "last", matching the
// stable time-merge of the serial reference.
func (p *partial) merge(o *partial) {
	switch p.mode {
	case modeCount:
		p.n += o.n
	case modeFirstLast:
		if !o.hasAny {
			return
		}
		if !p.hasAny {
			*p = *o
			return
		}
		if o.firstT < p.firstT {
			p.firstT, p.firstV = o.firstT, o.firstV
		}
		if o.lastT >= p.lastT {
			p.lastT, p.lastV = o.lastT, o.lastV
		}
	case modeDerivative:
		if !o.hasNum {
			return
		}
		if !p.hasNum {
			*p = *o
			return
		}
		if o.dFirstT < p.dFirstT {
			p.dFirstT, p.dFirst = o.dFirstT, o.dFirst
		}
		if o.dLastT >= p.dLastT {
			p.dLastT, p.dLast = o.dLastT, o.dLast
		}
		p.n += o.n
	case modeSum:
		if !o.hasNum {
			return
		}
		p.sum, p.comp = kahanStep(p.sum, p.comp, o.sum)
		p.sum, p.comp = kahanStep(p.sum, p.comp, -o.comp)
		p.n += o.n
		p.hasNum = true
	case modeMinMax:
		if !o.hasNum {
			return
		}
		if !p.hasNum || o.min < p.min {
			p.min = o.min
		}
		if !p.hasNum || o.max > p.max {
			p.max = o.max
		}
		p.hasNum = true
	case modeVals:
		if len(o.vals) == 0 {
			return
		}
		if len(p.vals) == 0 {
			p.vals = o.vals
			return
		}
		merged := make([]float64, 0, len(p.vals)+len(o.vals))
		i, j := 0, 0
		for i < len(p.vals) && j < len(o.vals) {
			if p.vals[i] <= o.vals[j] {
				merged = append(merged, p.vals[i])
				i++
			} else {
				merged = append(merged, o.vals[j])
				j++
			}
		}
		merged = append(merged, p.vals[i:]...)
		p.vals = append(merged, o.vals[j:]...)
	}
}

// --- vectorized column folds -------------------------------------------
//
// foldView feeds rows [lo, hi) of one snapshotted column into a partial.
// It is the columnar replacement of the per-row observe loop: for typed
// dense columns the inner loops are index-free sweeps over contiguous
// []float64 / []int64 slices — no field-map lookup, no Value boxing — and
// first/last/derivative collapse to O(1) endpoint reads. Every path is
// observation-order-identical to calling p.observe per row, so results
// stay byte-identical to the row engine.

// popcountRange counts set bits in [lo, hi) of bm.
func popcountRange(bm []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		return bits.OnesCount64(bm[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(bm[loW]&loMask) + bits.OnesCount64(bm[hiW]&hiMask)
	for w := loW + 1; w < hiW; w++ {
		n += bits.OnesCount64(bm[w])
	}
	return n
}

// foldView feeds column ci of the run snapshot, rows [lo, hi), into p.
func foldView(p *partial, rs *runSnap, ci, lo, hi int, strs []string) {
	v := &rs.cols[ci]
	if !v.ok || lo >= hi {
		return
	}
	if v.Mixed {
		// Mixed-kind columns fall back to the per-row observe loop.
		for i := lo; i < hi; i++ {
			if v.has(i) {
				p.observe(rs.ts[i], v.Vals[i])
			}
		}
		return
	}
	switch p.mode {
	case modeCount:
		if v.present == nil {
			p.n += int64(hi - lo)
		} else {
			p.n += int64(popcountRange(v.present, v.off+lo, v.off+hi))
		}
		return
	case modeFirstLast:
		first := v.firstPresent(lo, hi)
		if first < 0 {
			return
		}
		last := v.lastPresent(lo, hi)
		p.observe(rs.ts[first], v.At(first, strs))
		p.observe(rs.ts[last], v.At(last, strs))
		return
	}
	// The remaining modes are numeric: string columns contribute nothing.
	if v.Kind == lineproto.KindString {
		return
	}
	switch p.mode {
	case modeDerivative:
		first := v.firstPresent(lo, hi)
		if first < 0 {
			return
		}
		last := v.lastPresent(lo, hi)
		var n int64
		if v.present == nil {
			n = int64(hi - lo)
		} else {
			n = int64(popcountRange(v.present, v.off+lo, v.off+hi))
		}
		if !p.hasNum {
			p.dFirstT, p.dFirst = rs.ts[first], v.floatAt(first)
		}
		p.dLastT, p.dLast = rs.ts[last], v.floatAt(last)
		p.n += n
		p.hasNum = true
	case modeSum:
		if v.Kind == lineproto.KindFloat && v.present == nil {
			for _, f := range v.Floats[lo:hi] {
				p.sum, p.comp = kahanStep(p.sum, p.comp, f)
			}
			p.n += int64(hi - lo)
			p.hasNum = true
			return
		}
		cnt := int64(0)
		for i := lo; i < hi; i++ {
			if v.has(i) {
				p.sum, p.comp = kahanStep(p.sum, p.comp, v.floatAt(i))
				cnt++
			}
		}
		if cnt > 0 {
			p.n += cnt
			p.hasNum = true
		}
	case modeMinMax:
		if v.Kind == lineproto.KindFloat && v.present == nil {
			for _, f := range v.Floats[lo:hi] {
				if !p.hasNum {
					p.min, p.max, p.hasNum = f, f, true
					continue
				}
				if f < p.min {
					p.min = f
				}
				if f > p.max {
					p.max = f
				}
			}
			return
		}
		for i := lo; i < hi; i++ {
			if !v.has(i) {
				continue
			}
			f := v.floatAt(i)
			if !p.hasNum {
				p.min, p.max, p.hasNum = f, f, true
				continue
			}
			if f < p.min {
				p.min = f
			}
			if f > p.max {
				p.max = f
			}
		}
	case modeVals:
		if v.Kind == lineproto.KindFloat && v.present == nil {
			p.vals = append(p.vals, v.Floats[lo:hi]...)
			return
		}
		for i := lo; i < hi; i++ {
			if v.has(i) {
				p.vals = append(p.vals, v.floatAt(i))
			}
		}
	}
}

// floatAt returns local row i of a typed numeric column as float64,
// mirroring lineproto.Value.FloatVal (ints and bools convert).
func (v *colView) floatAt(i int) float64 {
	if v.Kind == lineproto.KindFloat {
		return v.Floats[i]
	}
	return float64(v.Ints[i]) // KindInt, KindBool (0/1)
}

// value is result as a result cell: nil when no value applies.
func (p *partial) value() *lineproto.Value {
	if v, ok := p.result(); ok {
		vv := v // boxed only when there is a value
		return &vv
	}
	return nil
}

// result produces the final aggregate value; false when no value applies.
func (p *partial) result() (lineproto.Value, bool) {
	switch p.mode {
	case modeCount:
		if p.n == 0 {
			return lineproto.Value{}, false
		}
		return lineproto.Int(p.n), true
	case modeFirstLast:
		if !p.hasAny {
			return lineproto.Value{}, false
		}
		if p.agg == AggFirst {
			return p.firstV, true
		}
		return p.lastV, true
	case modeDerivative:
		if p.n < 2 || p.dLastT == p.dFirstT {
			return lineproto.Value{}, false
		}
		dt := float64(p.dLastT-p.dFirstT) / 1e9
		return lineproto.Float((p.dLast - p.dFirst) / dt), true
	case modeSum:
		if !p.hasNum {
			return lineproto.Value{}, false
		}
		if p.agg == AggSum {
			return lineproto.Float(p.sum), true
		}
		return lineproto.Float(p.sum / float64(p.n)), true
	case modeMinMax:
		if !p.hasNum {
			return lineproto.Value{}, false
		}
		switch p.agg {
		case AggMin:
			return lineproto.Float(p.min), true
		case AggMax:
			return lineproto.Float(p.max), true
		default:
			return lineproto.Float(p.max - p.min), true
		}
	default: // modeVals
		if len(p.vals) == 0 {
			return lineproto.Value{}, false
		}
		switch p.agg {
		case AggStddev:
			if len(p.vals) < 2 {
				return lineproto.Float(0), true
			}
			mean := sum(p.vals) / float64(len(p.vals))
			var ss float64
			for _, v := range p.vals {
				d := v - mean
				ss += d * d
			}
			return lineproto.Float(math.Sqrt(ss / float64(len(p.vals)-1))), true
		case AggMedian:
			return lineproto.Float(percentileSorted(p.vals, 50)), true
		default: // AggPercentile
			return lineproto.Float(percentileSorted(p.vals, p.pct)), true
		}
	}
}
