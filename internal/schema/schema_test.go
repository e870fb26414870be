package schema

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ironsafe/internal/value"
)

func lineitemish() *Schema {
	return New(
		Col("l_orderkey", value.KindInt),
		Col("l_quantity", value.KindFloat),
		Col("l_returnflag", value.KindString),
		Col("l_shipdate", value.KindDate),
	)
}

func TestIndexOf(t *testing.T) {
	s := lineitemish()
	if got := s.IndexOf("l_quantity"); got != 1 {
		t.Errorf("IndexOf(l_quantity) = %d", got)
	}
	if got := s.IndexOf("L_QUANTITY"); got != 1 {
		t.Errorf("case-insensitive IndexOf = %d", got)
	}
	if got := s.IndexOf("nope"); got != -1 {
		t.Errorf("IndexOf(nope) = %d", got)
	}
}

func TestIndexOfQualified(t *testing.T) {
	s := lineitemish().Qualify("l")
	if got := s.IndexOf("l.l_orderkey"); got != 0 {
		t.Errorf("qualified lookup = %d", got)
	}
	if got := s.IndexOf("l_orderkey"); got != 0 {
		t.Errorf("unqualified lookup against qualified schema = %d", got)
	}
	// Ambiguity: two qualifiers exposing the same suffix.
	amb := s.Concat(lineitemish().Qualify("r"))
	if got := amb.IndexOf("l_orderkey"); got != -1 {
		t.Errorf("ambiguous lookup should fail, got %d", got)
	}
	if got := amb.IndexOf("r.l_orderkey"); got != 4 {
		t.Errorf("qualified disambiguation = %d", got)
	}
}

func TestIndexOfQualifiedRequestUnqualifiedSchema(t *testing.T) {
	s := lineitemish()
	if got := s.IndexOf("l.l_shipdate"); got != 3 {
		t.Errorf("qualified request against plain schema = %d", got)
	}
}

func TestQualifyStripsOldQualifier(t *testing.T) {
	s := lineitemish().Qualify("a").Qualify("b")
	if s.Columns[0].Name != "b.l_orderkey" {
		t.Errorf("requalify = %q", s.Columns[0].Name)
	}
}

func TestConcatAndString(t *testing.T) {
	a := New(Col("x", value.KindInt))
	b := New(Col("y", value.KindString))
	c := a.Concat(b)
	if c.Len() != 2 || c.Columns[1].Name != "y" {
		t.Errorf("Concat = %v", c)
	}
	if got := c.String(); got != "x INTEGER, y VARCHAR" {
		t.Errorf("String = %q", got)
	}
	// Concat must not alias the inputs.
	c.Columns[0].Name = "z"
	if a.Columns[0].Name != "x" {
		t.Error("Concat aliased its input")
	}
}

func sampleRow() Row {
	return Row{
		value.Int(42),
		value.Float(3.25),
		value.Str("hello world"),
		value.MustParseDate("1995-03-15"),
		value.Bool(true),
		value.Null(),
		value.Int(-9999999),
		value.Str(""),
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := sampleRow()
	buf := EncodeRow(nil, r)
	if len(buf) != EncodedSize(r) {
		t.Errorf("EncodedSize = %d, actual %d", EncodedSize(r), len(buf))
	}
	got, n, err := DecodeRow(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("roundtrip mismatch: %v vs %v", got, r)
	}
}

func TestRowsCodecRoundTrip(t *testing.T) {
	rows := []Row{sampleRow(), {value.Int(1)}, {}}
	buf := EncodeRows(rows)
	got, err := DecodeRows(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("batch roundtrip mismatch")
	}
}

// TestDecodeRowsForgedCount: the count prefix comes from outside, so a body
// that cannot hold that many rows is refused before anything is sized by it
// (2^62 rows used to panic in make).
func TestDecodeRowsForgedCount(t *testing.T) {
	body := EncodeRows([]Row{sampleRow(), sampleRow()})[1:]
	for _, count := range []uint64{uint64(len(body))/2 + 1, 1 << 31, 1 << 62, math.MaxUint64} {
		buf := append(binary.AppendUvarint(nil, count), body...)
		if _, err := DecodeRows(buf); !errors.Is(err, ErrRowCount) {
			t.Errorf("count %d over %d bytes: error %v, want ErrRowCount", count, len(body), err)
		}
	}
	// A count the bytes could hold still fails row by row, typed as before.
	if _, err := DecodeRows(append(binary.AppendUvarint(nil, 3), body...)); err == nil || errors.Is(err, ErrRowCount) {
		t.Errorf("three rows claimed over two: error %v", err)
	}
	if rows, err := DecodeRows([]byte{0}); err != nil || len(rows) != 0 {
		t.Errorf("empty batch: %v, %v", rows, err)
	}
}

func TestDecodeRowTruncation(t *testing.T) {
	full := EncodeRow(nil, sampleRow())
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeRow(full[:i]); err == nil {
			t.Errorf("truncation at %d bytes not detected", i)
		}
	}
}

func TestDecodeRowGarbage(t *testing.T) {
	if _, _, err := DecodeRow([]byte{1, 0, 0xFF}); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := DecodeRows(nil); err == nil {
		t.Error("empty batch buffer should error")
	}
}

func TestRowCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() Row {
		n := rng.Intn(12)
		r := make(Row, n)
		for i := range r {
			switch rng.Intn(6) {
			case 0:
				r[i] = value.Null()
			case 1:
				r[i] = value.Int(rng.Int63() - (1 << 62))
			case 2:
				r[i] = value.Float(rng.NormFloat64() * 1e6)
			case 3:
				b := make([]byte, rng.Intn(64))
				rng.Read(b)
				r[i] = value.Str(string(b))
			case 4:
				r[i] = value.Date(int64(rng.Intn(40000)))
			default:
				r[i] = value.Bool(rng.Intn(2) == 0)
			}
		}
		return r
	}
	for i := 0; i < 500; i++ {
		r := gen()
		buf := EncodeRow(nil, r)
		got, n, err := DecodeRow(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("iter %d: decode err %v n=%d/%d", i, err, n, len(buf))
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("iter %d: mismatch", i)
		}
		if EncodedSize(r) != len(buf) {
			t.Fatalf("iter %d: size mismatch", i)
		}
	}
}

func TestEncodeDeterministicProperty(t *testing.T) {
	f := func(a int64, s string, b bool) bool {
		r := Row{value.Int(a), value.Str(s), value.Bool(b)}
		return bytes.Equal(EncodeRow(nil, r), EncodeRow(nil, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{value.Int(1), value.Str("a")}
	c := r.Clone()
	c[0] = value.Int(2)
	if r[0].AsInt() != 1 {
		t.Error("Clone aliased the original")
	}
}
