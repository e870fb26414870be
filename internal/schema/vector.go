package schema

import (
	"math"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/value"
)

// The pools of the arrays vectors are made of (see bufpool).
var (
	Int64s   = bufpool.New[int64](0x5a5a5a5a5a5a5a5a, false)
	Float64s = bufpool.New(math.NaN(), false)
	Strings  = bufpool.New("\x00recycled", true)
	Values   = bufpool.New(value.Str("\x00recycled"), true)
)

// ColVec is a typed column vector: one column of a row batch, decomposed into
// a flat array so vectorized operators can run tight kernels over it instead
// of per-row interface dispatch. A column whose values all share one kind
// (with no NULLs) is stored unboxed — Int/Date/Bool in Ints, Float in Floats,
// String in Strs — and reboxed losslessly on demand (value constructors are
// pure, so Value(i) reconstructs a struct-equal value.Value). Mixed or
// NULL-bearing columns fall back to the Boxed representation, where the zero
// value is SQL NULL.
type ColVec struct {
	// Kind is the element kind of the unboxed representations; for Boxed
	// vectors it is KindNull and per-element kinds live in the values.
	Kind value.Kind
	// Const marks a vector whose n elements are all the single stored
	// element (used for literals and correlated outer-row columns).
	Const bool

	Ints   []int64
	Floats []float64
	Strs   []string
	Boxed  []value.Value

	n int
	// sc is the scratch the arrays of a vector under construction are taken
	// for (NewVec); nil: the collector's.
	sc *bufpool.Scratch
}

// NewVec returns an empty vector to build by Append, AppendSel or Gather,
// whose arrays are taken for sc and go back with it.
func NewVec(sc *bufpool.Scratch) *ColVec { return &ColVec{sc: sc} }

// BoxedVec wraps vals as a boxed vector, for output built element-wise via
// Set; a zero element is SQL NULL.
func BoxedVec(vals []value.Value) *ColVec {
	return &ColVec{Boxed: vals, n: len(vals)}
}

// ConstVec returns a length-n vector whose every element is v.
func ConstVec(v value.Value, n int) *ColVec {
	return &ColVec{Const: true, Boxed: []value.Value{v}, n: n}
}

// IntVec wraps an int64 kernel output as a vector of kind (KindInt, KindDate,
// or KindBool — Bool encodes false/true as 0/1).
func IntVec(kind value.Kind, ints []int64) *ColVec {
	return &ColVec{Kind: kind, Ints: ints, n: len(ints)}
}

// FloatVec wraps a float64 kernel output.
func FloatVec(floats []float64) *ColVec {
	return &ColVec{Kind: value.KindFloat, Floats: floats, n: len(floats)}
}

// FromRows extracts column col of rows into a vector, choosing the unboxed
// representation when every element shares one non-null kind.
func FromRows(rows []Row, col int) *ColVec {
	cv := &ColVec{n: len(rows)}
	if len(rows) > 0 {
		cv.Kind = rows[0][col].Kind()
	}
	for _, r := range rows {
		if v := r[col]; v.Kind() != cv.Kind || v.IsNull() {
			cv.Kind = value.KindNull
			break
		}
	}
	switch cv.Kind {
	case value.KindInt, value.KindDate, value.KindBool:
		cv.Ints = make([]int64, len(rows))
		for i, r := range rows {
			cv.Ints[i] = r[col].AsInt()
		}
	case value.KindFloat:
		cv.Floats = make([]float64, len(rows))
		for i, r := range rows {
			cv.Floats[i] = r[col].AsFloat()
		}
	case value.KindString:
		cv.Strs = make([]string, len(rows))
		for i, r := range rows {
			cv.Strs[i] = r[col].String()
		}
	default:
		cv.Kind = value.KindNull
		cv.Boxed = make([]value.Value, len(rows))
		for i, r := range rows {
			cv.Boxed[i] = r[col]
		}
	}
	return cv
}

// Len returns the element count.
func (cv *ColVec) Len() int { return cv.n }

// Value reboxes element i. For unboxed vectors this reconstructs a
// struct-equal value.Value; for boxed vectors it returns the stored value.
func (cv *ColVec) Value(i int) value.Value {
	if cv.Const {
		return cv.Boxed[0]
	}
	switch {
	case cv.Ints != nil:
		switch cv.Kind {
		case value.KindDate:
			return value.Date(cv.Ints[i])
		case value.KindBool:
			return value.Bool(cv.Ints[i] != 0)
		default:
			return value.Int(cv.Ints[i])
		}
	case cv.Floats != nil:
		return value.Float(cv.Floats[i])
	case cv.Strs != nil:
		return value.Str(cv.Strs[i])
	default:
		return cv.Boxed[i]
	}
}

// Set stores v at element i. Only boxed non-const vectors are writable; Set
// is the output primitive paired with BoxedVec.
func (cv *ColVec) Set(i int, v value.Value) { cv.Boxed[i] = v }

// Slice returns elements [off, end) of cv as a vector sharing its storage.
func (cv *ColVec) Slice(off, end int) *ColVec {
	out := &ColVec{Kind: cv.Kind, Const: cv.Const, n: end - off}
	switch {
	case cv.Const:
		out.Boxed = cv.Boxed
	case cv.Ints != nil:
		out.Ints = cv.Ints[off:end]
	case cv.Floats != nil:
		out.Floats = cv.Floats[off:end]
	case cv.Strs != nil:
		out.Strs = cv.Strs[off:end]
	default:
		out.Boxed = cv.Boxed[off:end]
	}
	return out
}

// Append adds v to a vector under construction, which starts as the zero
// ColVec and chooses its representation as FromRows does for the same
// elements: unboxed while every element shares one non-null kind, boxed from
// the first one that does not.
func (cv *ColVec) Append(v value.Value) {
	if cv.n == 0 && cv.Boxed == nil {
		cv.Kind = v.Kind()
	}
	switch {
	case cv.Boxed != nil || v.Kind() != cv.Kind || v.IsNull():
		cv.box()
		cv.Boxed = append(Values.Grow(cv.sc, cv.Boxed, 1), v)
	case cv.Kind == value.KindFloat:
		cv.Floats = append(Float64s.Grow(cv.sc, cv.Floats, 1), v.AsFloat())
	case cv.Kind == value.KindString:
		cv.Strs = append(Strings.Grow(cv.sc, cv.Strs, 1), v.AsString())
	default:
		cv.Ints = append(Int64s.Grow(cv.sc, cv.Ints, 1), v.AsInt())
	}
	cv.n++
}

// AppendSel is Append of src's elements at positions base+sel[k]; typed
// elements of the vector's own kind are copied without being boxed. An array
// that lacks room is at least doubled: a vector of a hundred thousand
// elements built window by window is then copied twice its size in all.
func (cv *ColVec) AppendSel(src *ColVec, base int, sel []int) {
	if len(sel) == 0 {
		return
	}
	if cv.Boxed != nil || src.Const || src.Boxed != nil || cv.n > 0 && cv.Kind != src.Kind {
		for _, i := range sel {
			cv.Append(src.Value(base + i))
		}
		return
	}
	cv.Kind = src.Kind
	switch {
	case src.Ints != nil:
		cv.Ints = Int64s.Grow(cv.sc, cv.Ints, len(sel))
		for _, i := range sel {
			cv.Ints = append(cv.Ints, src.Ints[base+i])
		}
	case src.Floats != nil:
		cv.Floats = Float64s.Grow(cv.sc, cv.Floats, len(sel))
		for _, i := range sel {
			cv.Floats = append(cv.Floats, src.Floats[base+i])
		}
	default:
		cv.Strs = Strings.Grow(cv.sc, cv.Strs, len(sel))
		for _, i := range sel {
			cv.Strs = append(cv.Strs, src.Strs[base+i])
		}
	}
	cv.n += len(sel)
}

// box turns a vector under construction into the boxed representation.
func (cv *ColVec) box() {
	if cv.Boxed != nil {
		return
	}
	boxed := Values.Take(cv.sc, max(2*cv.n, 8))[:cv.n]
	for i := range boxed {
		boxed[i] = cv.Value(i)
	}
	*cv = ColVec{Boxed: boxed, n: cv.n, sc: cv.sc}
}

// Poison overwrites the vector's elements with values no table holds. It is
// for test hooks that make a vector kept past its lifetime visible.
func (cv *ColVec) Poison() {
	for i := range cv.Ints {
		cv.Ints[i] = 0x5a5a5a5a5a5a5a5a
	}
	for i := range cv.Floats {
		cv.Floats[i] = math.NaN()
	}
	for i := range cv.Strs {
		cv.Strs[i] = "\x00recycled"
	}
	for i := range cv.Boxed {
		cv.Boxed[i] = value.Str("\x00recycled")
	}
}

// Gather refills the vector with src's elements at positions at, a negative
// position standing for NULL: typed as src is unless there is one. The vector
// keeps its array where it has the representation and the room, so a vector
// refilled batch after batch takes its array once. It returns cv.
func (cv *ColVec) Gather(src *ColVec, at []int32) *ColVec {
	n := len(at)
	out := ColVec{Kind: src.Kind, n: n, sc: cv.sc}
	typed := !src.Const && src.Boxed == nil
	if typed {
		switch {
		case src.Ints != nil:
			out.Ints = sized(Int64s, cv.sc, cv.Ints, n)
			typed = gather(out.Ints, src.Ints, at)
		case src.Floats != nil:
			out.Floats = sized(Float64s, cv.sc, cv.Floats, n)
			typed = gather(out.Floats, src.Floats, at)
		case src.Strs != nil:
			out.Strs = sized(Strings, cv.sc, cv.Strs, n)
			typed = gather(out.Strs, src.Strs, at)
		default:
			typed = false // src is empty: every position is NULL
		}
	}
	if !typed {
		out = ColVec{Boxed: sized(Values, cv.sc, cv.Boxed, n), n: n, sc: cv.sc}
		for k, a := range at {
			out.Boxed[k] = value.Null()
			if a >= 0 {
				out.Boxed[k] = src.Value(int(a))
			}
		}
	}
	*cv = out
	return cv
}

// sized returns a with length n, or an array of n elements taken for sc where
// a lacks the room.
func sized[T any](p *bufpool.Pool[T], sc *bufpool.Scratch, a []T, n int) []T {
	if cap(a) < n {
		return p.Take(sc, n)
	}
	return a[:n]
}

// gather copies src[at[k]] to dst[k], stopping with false at a negative
// position.
func gather[T any](dst, src []T, at []int32) bool {
	for k, a := range at {
		if a < 0 {
			return false
		}
		dst[k] = src[a]
	}
	return true
}
