package schema

import (
	"math"
	"slices"

	"ironsafe/internal/value"
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
}

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
	n := len(rows)
	kind := value.KindNull
	uniform := true
	for _, r := range rows {
		v := r[col]
		if v.IsNull() {
			uniform = false
			break
		}
		if kind == value.KindNull {
			kind = v.Kind()
		} else if v.Kind() != kind {
			uniform = false
			break
		}
	}
	if !uniform || n == 0 {
		cv := &ColVec{Boxed: make([]value.Value, n), n: n}
		for i, r := range rows {
			cv.Boxed[i] = r[col]
		}
		return cv
	}
	switch kind {
	case value.KindInt, value.KindDate, value.KindBool:
		cv := &ColVec{Kind: kind, Ints: make([]int64, n), n: n}
		for i, r := range rows {
			cv.Ints[i] = r[col].AsInt()
		}
		return cv
	case value.KindFloat:
		cv := &ColVec{Kind: kind, Floats: make([]float64, n), n: n}
		for i, r := range rows {
			cv.Floats[i] = r[col].AsFloat()
		}
		return cv
	case value.KindString:
		cv := &ColVec{Kind: kind, Strs: make([]string, n), n: n}
		for i, r := range rows {
			cv.Strs[i] = r[col].String()
		}
		return cv
	default:
		cv := &ColVec{Boxed: make([]value.Value, n), n: n}
		for i, r := range rows {
			cv.Boxed[i] = r[col]
		}
		return cv
	}
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
		cv.Boxed = append(cv.Boxed, v)
	case cv.Kind == value.KindFloat:
		cv.Floats = append(cv.Floats, v.AsFloat())
	case cv.Kind == value.KindString:
		cv.Strs = append(cv.Strs, v.AsString())
	default:
		cv.Ints = append(cv.Ints, v.AsInt())
	}
	cv.n++
}

// AppendSel is Append of src's elements at positions base+sel[k]; typed
// elements of the vector's own kind are copied without being boxed.
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
		cv.Ints = Room(cv.Ints, len(sel))
		for _, i := range sel {
			cv.Ints = append(cv.Ints, src.Ints[base+i])
		}
	case src.Floats != nil:
		cv.Floats = Room(cv.Floats, len(sel))
		for _, i := range sel {
			cv.Floats = append(cv.Floats, src.Floats[base+i])
		}
	default:
		cv.Strs = Room(cv.Strs, len(sel))
		for _, i := range sel {
			cv.Strs = append(cv.Strs, src.Strs[base+i])
		}
	}
	cv.n += len(sel)
}

// Room returns s with room for n more elements, at least doubling an array
// that lacks it: a vector of a hundred thousand elements built window by
// window is then copied twice its size in all, not append's five times.
func Room[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s), 8))
}

// box turns a vector under construction into the boxed representation.
func (cv *ColVec) box() {
	if cv.Boxed != nil {
		return
	}
	boxed := make([]value.Value, cv.n, max(2*cv.n, 8))
	for i := range boxed {
		boxed[i] = cv.Value(i)
	}
	*cv = ColVec{Boxed: boxed, n: cv.n}
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

// ColBuf is the storage of a vector that is rebuilt again and again — one
// column of a window, of a batch gathered through a position vector — so that
// only the first one allocates. A vector it hands out is valid until the next.
// A column settles on one representation, so in practice one of the four
// arrays is ever grown.
type ColBuf struct {
	vec    ColVec
	ints   []int64
	floats []float64
	strs   []string
	boxed  []value.Value
}

// Vec returns the vector the buffer holds.
func (b *ColBuf) Vec() *ColVec { return &b.vec }

// Gather fills the buffer with src's elements at positions at, a negative
// position standing for NULL: typed as src is unless there is one.
func (b *ColBuf) Gather(src *ColVec, at []int32) *ColVec {
	n := len(at)
	typed := !src.Const && src.Boxed == nil
	if typed {
		switch {
		case src.Ints != nil:
			b.ints = resize(b.ints, n)
			typed = gather(b.ints, src.Ints, at)
			b.vec = ColVec{Kind: src.Kind, Ints: b.ints, n: n}
		case src.Floats != nil:
			b.floats = resize(b.floats, n)
			typed = gather(b.floats, src.Floats, at)
			b.vec = ColVec{Kind: src.Kind, Floats: b.floats, n: n}
		case src.Strs != nil:
			b.strs = resize(b.strs, n)
			typed = gather(b.strs, src.Strs, at)
			b.vec = ColVec{Kind: src.Kind, Strs: b.strs, n: n}
		default:
			typed = false // src is empty: every position is NULL
		}
	}
	if !typed {
		b.boxed = resize(b.boxed, n)
		for k, a := range at {
			b.boxed[k] = value.Null()
			if a >= 0 {
				b.boxed[k] = src.Value(int(a))
			}
		}
		b.vec = ColVec{Boxed: b.boxed, n: n}
	}
	return &b.vec
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
