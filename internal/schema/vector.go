package schema

import "ironsafe/internal/value"

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
