package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/value"
)

// hashKeyTuple is the specification of key equality: the tuple's HashKeys,
// column by column. Each is length-prefixed, so — unlike the "\x00"-joined
// string the executor used to build — no two tuples share one by accident.
func hashKeyTuple(vals []value.Value) (key string, hasNull bool) {
	for _, v := range vals {
		k := v.HashKey()
		key += strconv.Itoa(len(k)) + ":" + k
		hasNull = hasNull || v.IsNull()
	}
	return key, hasNull
}

// keyValues is the pool the key-table tests draw from: every class, the
// values HashKey treats specially, and enough repeats to collide.
var keyValues = []value.Value{
	value.Null(),
	value.Int(0), value.Int(1), value.Int(-1), value.Int(7), value.Int(1e15), value.Int(math.MaxInt64), value.Int(math.MinInt64),
	value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(-1), value.Float(7), value.Float(7.5), value.Float(-7.5),
	value.Float(1e15), value.Float(-1e15), value.Float(999999999999999), value.Float(1e300),
	value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000001)),
	value.Float(math.SmallestNonzeroFloat64),
	value.Date(0), value.Date(1), value.Date(7), value.Date(-1),
	value.Bool(false), value.Bool(true),
	value.Str(""), value.Str("a"), value.Str("b"), value.Str("a\x00\x03b"), value.Str("b\x00\x03c"), value.Str("\x00"), value.Str("\x011"), value.Str("1"),
}

// checkKeyTable inserts tuples into a table row by row and requires the ids to
// partition them exactly as hashKeyTuple does, then looks every tuple up again
// through the vector entry point — over typed vectors where a column is
// uniform, boxed ones where it is not — and requires the same ids.
func checkKeyTable(t *testing.T, tuples [][]value.Value, arity int, nulls bool) {
	t.Helper()
	table := newKeyTable(arity, 0, nulls)
	want := map[string]int32{}
	ids := make([]int32, len(tuples))
	for i, tup := range tuples {
		key, hasNull := hashKeyTuple(tup)
		ids[i] = table.id(tup, true)
		if hasNull && !nulls {
			if ids[i] != -1 {
				t.Fatalf("tuple %d %v: void key got id %d", i, tup, ids[i])
			}
			continue
		}
		id, seen := want[key]
		if !seen {
			id = int32(len(want))
			want[key] = id
		}
		if ids[i] != id {
			t.Fatalf("tuple %d %v: id %d, HashKey says %d (seen before: %v)", i, tup, ids[i], id, seen)
		}
	}
	if int(table.n) != len(want) {
		t.Fatalf("%d ids for %d distinct keys", table.n, len(want))
	}
	rows := make([]schema.Row, len(tuples))
	for i, tup := range tuples {
		rows[i] = tup
	}
	cols := make([]*schema.ColVec, arity)
	for c := range cols {
		cols[c] = schema.FromRows(rows, c)
	}
	got := make([]int32, len(tuples))
	table.ids(cols, len(tuples), false, got)
	for i := range tuples {
		if got[i] != ids[i] {
			t.Fatalf("tuple %d %v: vector lookup %d, row lookup %d", i, tuples[i], got[i], ids[i])
		}
	}
	// A fresh table filled through the vector entry point assigns the same ids.
	fresh := newKeyTable(arity, len(tuples), nulls)
	fresh.ids(cols, len(tuples), true, got)
	for i := range tuples {
		if got[i] != ids[i] {
			t.Fatalf("tuple %d %v: vector insert %d, row insert %d", i, tuples[i], got[i], ids[i])
		}
	}
}

// TestKeyTableMatchesHashKey holds the key table to its specification: two
// tuples share an id exactly when their HashKeys are equal column by column.
func TestKeyTableMatchesHashKey(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 300; round++ {
		arity := 1 + round%3
		// A round draws from a few pool values so that tuples repeat; every
		// fourth round one column is of a single kind, which takes the typed
		// vectors (and, at arity 1 over Int or Date, the integer fast path).
		pool := make([]value.Value, 2+rng.Intn(6))
		for i := range pool {
			pool[i] = keyValues[rng.Intn(len(keyValues))]
		}
		tuples := make([][]value.Value, rng.Intn(200))
		for i := range tuples {
			tuples[i] = make([]value.Value, arity)
			for c := range tuples[i] {
				tuples[i][c] = pool[rng.Intn(len(pool))]
			}
			if round%4 == 0 {
				kinds := []value.Value{value.Int(int64(rng.Intn(5))), value.Date(int64(rng.Intn(5))), value.Float(float64(rng.Intn(5)) / 2), value.Str(strconv.Itoa(rng.Intn(5)))}
				tuples[i][0] = kinds[round/4%len(kinds)]
			}
		}
		checkKeyTable(t, tuples, arity, round%2 == 0)
	}
}

// FuzzKeyTable decodes arbitrary bytes into key tuples and runs the same
// check: the table against a map keyed by HashKey.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 1, 7, 2, 7, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 2, 'a', 0, 3, 1, 'b', 3, 1, 'a', 3, 2, 0, 'b'})
	f.Add([]byte{2, 0, 0, 0, 4, 9, 5, 1, 1, 9, 6, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity, nulls := 1+int(data[0]%3), data[0]&4 != 0
		data = data[1:]
		next := func() (value.Value, bool) {
			if len(data) == 0 {
				return value.Null(), false
			}
			tag := data[0]
			data = data[1:]
			take := func(n int) []byte {
				if n > len(data) {
					n = len(data)
				}
				b := data[:n]
				data = data[n:]
				return b
			}
			one := func() byte {
				var b [1]byte
				copy(b[:], take(1))
				return b[0]
			}
			switch tag % 8 {
			case 0:
				return value.Null(), true
			case 1:
				return value.Int(int64(int8(one()))), true
			case 2:
				var b [8]byte
				copy(b[:], take(8))
				return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))), true
			case 3:
				return value.Str(string(take(int(one() % 4)))), true
			case 4:
				return value.Date(int64(int8(one()))), true
			case 5:
				return value.Bool(one()&1 == 1), true
			case 6:
				return value.Float(float64(int8(one())) / 2), true
			}
			var b [8]byte
			copy(b[:], take(8))
			return value.Int(int64(binary.LittleEndian.Uint64(b[:]))), true
		}
		var tuples [][]value.Value
		for len(tuples) < 512 {
			tup := make([]value.Value, arity)
			ok := true
			for c := range tup {
				tup[c], ok = next()
				if !ok {
					break
				}
			}
			if !ok {
				break
			}
			tuples = append(tuples, tup)
		}
		checkKeyTable(t, tuples, arity, nulls)
	})
}

// TestGroupPositions pins the id -> rows inversion both joins and the
// subquery candidate groups read.
func TestGroupPositions(t *testing.T) {
	start, pos := groupPositions([]int32{2, -1, 0, 2, 0, 2, -1}, 4)
	want := [][]int32{{2, 4}, {}, {0, 3, 5}, {}}
	for id, rows := range want {
		got := pos[start[id]:start[id+1]]
		if len(got) != len(rows) {
			t.Fatalf("id %d: rows %v, want %v", id, got, rows)
		}
		for i := range rows {
			if got[i] != rows[i] {
				t.Fatalf("id %d: rows %v, want %v", id, got, rows)
			}
		}
	}
	if start, pos = groupPositions(nil, 0); len(start) != 1 || len(pos) != 0 {
		t.Fatalf("empty: start %v pos %v", start, pos)
	}
}
