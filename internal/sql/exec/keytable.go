package exec

import (
	"math"

	"ironsafe/internal/schema"
	"ironsafe/internal/value"
)

// keyTable assigns dense ids, in order of first appearance, to tuples of key
// values: the one hash table behind joins, grouped aggregation, DISTINCT and
// the subquery caches. Two tuples share an id exactly when their components'
// value.HashKey strings are equal column by column — HashKey is the
// specification, and the tests hold the table to it: Int equals an integral
// Float of magnitude below 1e15, Date differs from Int of the same payload,
// Bool is its own class, strings compare by bytes. A tuple with a NULL
// component is void — never stored, never found — unless the table was made
// with nulls set, as GROUP BY and DISTINCT need, where NULL is a value.
//
// Keys are hashed and compared by class and typed payload; nothing is
// formatted. The vector entry point (ids) reads the payload arrays of typed
// key columns directly, the row entry point (id) takes boxed values: batch
// size 1 and vector mode are the same table.
type keyTable struct {
	arity int
	nulls bool

	slots []int32 // open addressing over ids: id+1, 0 empty; len a power of two, at most half full
	n     int32   // ids assigned
	kinds []value.Kind
	bits  []int64  // n × arity payloads: Int, Date, Bool as they are, Float by bit pattern
	strs  []string // string payloads; nil until one is stored

	probe []keyPart // the tuple being looked up
}

// keyPart is one canonical key component: an integral Float of magnitude
// below 1e15 is the Int it equals, every NaN is one NaN.
type keyPart struct {
	kind value.Kind
	bits int64
	str  string
}

// newKeyTable returns a table for tuples of arity components, sized for keys
// distinct tuples (0: grown on demand).
func newKeyTable(arity, keys int, nulls bool) *keyTable {
	t := &keyTable{arity: arity, nulls: nulls, probe: make([]keyPart, arity)}
	if keys > 0 {
		t.slots = make([]int32, slotsFor(keys))
		t.kinds = make([]value.Kind, 0, keys*arity)
		t.bits = make([]int64, 0, keys*arity)
	}
	return t
}

// slotsFor returns the slot count that holds keys ids at most half full.
func slotsFor(keys int) int {
	n := 8
	for n < 2*keys {
		n *= 2
	}
	return n
}

// groupPositions inverts a row → id assignment (negative: none) over ids in
// [0, n): the rows holding id, ascending, are pos[start[id]:start[id+1]]. It is
// the per-key row list of a join's build side and of a subquery's candidate
// groups, as two arrays instead of a slice per key.
func groupPositions(ids []int32, n int32) (start, pos []int32) {
	// Counted two slots up, the running sum leaves each id's begin one slot
	// up, where it serves as that id's cursor; the fill moves it to the id's
	// end, which is the next id's begin in its final place.
	start = make([]int32, n+2)
	for _, id := range ids {
		if id >= 0 {
			start[id+2]++
		}
	}
	for i := int32(2); i < n+2; i++ {
		start[i] += start[i-1]
	}
	pos = make([]int32, start[n+1])
	for row, id := range ids {
		if id >= 0 {
			pos[start[id+1]] = int32(row)
			start[id+1]++
		}
	}
	return start[:n+1], pos
}

var nanBits = int64(math.Float64bits(math.NaN()))

func floatPart(f float64) keyPart {
	switch {
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return keyPart{kind: value.KindInt, bits: int64(f)}
	case f != f:
		return keyPart{kind: value.KindFloat, bits: nanBits}
	}
	return keyPart{kind: value.KindFloat, bits: int64(math.Float64bits(f))}
}

func valuePart(v value.Value) keyPart {
	switch v.Kind() {
	case value.KindInt, value.KindDate, value.KindBool:
		return keyPart{kind: v.Kind(), bits: v.AsInt()}
	case value.KindFloat:
		return floatPart(v.AsFloat())
	case value.KindString:
		return keyPart{kind: value.KindString, str: v.AsString()}
	}
	return keyPart{}
}

// vecPart is valuePart of cv's element j, read without boxing from a typed
// vector.
func vecPart(cv *schema.ColVec, j int) keyPart {
	switch {
	case cv.Const:
		return valuePart(cv.Boxed[0])
	case cv.Ints != nil:
		return keyPart{kind: cv.Kind, bits: cv.Ints[j]}
	case cv.Floats != nil:
		return floatPart(cv.Floats[j])
	case cv.Strs != nil:
		return keyPart{kind: value.KindString, str: cv.Strs[j]}
	}
	return valuePart(cv.Boxed[j])
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashPart(h uint64, p keyPart) uint64 {
	h = mix64(h ^ uint64(p.bits) ^ uint64(p.kind)<<56)
	if p.kind == value.KindString {
		f := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(p.str); i++ {
			f = (f ^ uint64(p.str[i])) * 1099511628211
		}
		h = mix64(h ^ f)
	}
	return h
}

// id returns the id of the tuple vals, assigning the next one if insert is set
// and the tuple is new; -1 for a void tuple and for one not in the table.
func (t *keyTable) id(vals []value.Value, insert bool) int32 {
	for c, v := range vals {
		t.probe[c] = valuePart(v)
	}
	return t.lookup(insert)
}

// ids is id for each of the n tuples whose components are the elements of
// cols, written to out[:n]. Typed vectors are read in place: no element of an
// Int, Date, Float or string key column is boxed.
func (t *keyTable) ids(cols []*schema.ColVec, n int, insert bool, out []int32) {
	for j := 0; j < n; j++ {
		for c, cv := range cols {
			t.probe[c] = vecPart(cv, j)
		}
		out[j] = t.lookup(insert)
	}
}

// filter appends to dst the positions of sel whose tuple — the elements of
// cols there — is in the table: the semi-join probe. Like ids it boxes nothing.
func (t *keyTable) filter(cols []*schema.ColVec, sel, dst []int) []int {
	for _, j := range sel {
		for c, cv := range cols {
			t.probe[c] = vecPart(cv, j)
		}
		if t.lookup(false) >= 0 {
			dst = append(dst, j)
		}
	}
	return dst
}

// lookup is id for the tuple in t.probe.
func (t *keyTable) lookup(insert bool) int32 {
	var h uint64
	for _, p := range t.probe {
		if p.kind == value.KindNull && !t.nulls {
			return -1
		}
		h = hashPart(h, p)
	}
	if len(t.slots) == 0 {
		if !insert {
			return -1
		}
		t.slots = make([]int32, slotsFor(0))
	}
	mask := uint64(len(t.slots) - 1)
	s := h & mask
	for ; t.slots[s] != 0; s = (s + 1) & mask {
		if id := t.slots[s] - 1; t.equal(id) {
			return id
		}
	}
	if !insert {
		return -1
	}
	id := t.n
	t.n++
	for _, p := range t.probe {
		t.kinds, t.bits = append(t.kinds, p.kind), append(t.bits, p.bits)
		if p.kind == value.KindString && t.strs == nil {
			t.strs = make([]string, len(t.bits)-1, cap(t.bits))
		}
		if t.strs != nil {
			t.strs = append(t.strs, p.str)
		}
	}
	t.slots[s] = id + 1
	if int(t.n)*2 > len(t.slots) {
		t.grow()
	}
	return id
}

// equal reports whether the stored tuple id is the one in t.probe.
func (t *keyTable) equal(id int32) bool {
	base := int(id) * t.arity
	for c, p := range t.probe {
		if t.kinds[base+c] != p.kind || t.bits[base+c] != p.bits {
			return false
		}
		if p.kind == value.KindString && t.strs[base+c] != p.str {
			return false
		}
	}
	return true
}

// grow doubles the slot array and re-places every id.
func (t *keyTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id := int32(0); id < t.n; id++ {
		var h uint64
		for c := int(id) * t.arity; c < int(id+1)*t.arity; c++ {
			p := keyPart{kind: t.kinds[c], bits: t.bits[c]}
			if t.strs != nil {
				p.str = t.strs[c]
			}
			h = hashPart(h, p)
		}
		s := h & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = id + 1
	}
}
