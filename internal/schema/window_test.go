package schema

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ironsafe/internal/value"
)

// encodeRun encodes rows back to back, as a heap page holds them.
func encodeRun(rows []Row) []byte {
	var buf []byte
	for _, r := range rows {
		buf = EncodeRow(buf, r)
	}
	return buf
}

// windowOf indexes count rows of data (all of one width) into a window,
// failing where the structural pass fails.
func windowOf(data []byte, count, width int) (*RowWindow, error) {
	w := NewRowWindow(width)
	pos := 0
	for i := 0; i < count; i++ {
		next, err := w.AppendRow(data, pos)
		if err != nil {
			return nil, err
		}
		pos = next
	}
	return w, nil
}

// sameVec reports whether two vectors hold the same values in the same
// representation.
func sameVec(a, b *ColVec) bool {
	if a.Len() != b.Len() || a.Kind != b.Kind ||
		(a.Ints != nil) != (b.Ints != nil) || (a.Floats != nil) != (b.Floats != nil) || (a.Strs != nil) != (b.Strs != nil) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !sameValue(a.Value(i), b.Value(i)) {
			return false
		}
	}
	return true
}

// sameValue is struct equality with NaN payloads compared by bits.
func sameValue(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a == b
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkWindow compares every page-backed access against the boxed-row
// reference: Col against FromRows, AppendRows against projecting rows,
// AppendEncoded against the projected rows once decoded. Field bytes are
// copied, not re-encoded, so over canonical input (what EncodeRow wrote) the
// output must also equal the projected rows' encoding byte for byte; a
// non-minimal varint or a bool byte other than 0/1 is carried as it came.
func checkWindow(t *testing.T, w *RowWindow, rows []Row, cols []int) {
	t.Helper()
	checkEncoded := func(got []byte, want []Row, what string) {
		t.Helper()
		dec, err := DecodeRows(append(binary.AppendUvarint(nil, uint64(len(want))), got...))
		if err != nil || !sameRows(dec, want) {
			t.Errorf("%s decodes to %v (%v), want %v", what, dec, err, want)
		}
	}
	if w.Len() != len(rows) {
		t.Fatalf("window holds %d rows, want %d", w.Len(), len(rows))
	}
	for _, c := range cols {
		if got, want := w.Col(c), FromRows(rows, c); !sameVec(got, want) {
			t.Errorf("Col(%d) = %+v, FromRows = %+v", c, got, want)
		}
	}
	var sel, odd []int
	for i := range rows {
		sel = append(sel, i)
		if i%2 == 1 {
			odd = append(odd, i)
		}
	}
	for _, s := range [][]int{sel, odd, nil} {
		var want []Row
		for _, i := range s {
			r := make(Row, len(cols))
			for j, c := range cols {
				r[j] = rows[i][c]
			}
			want = append(want, r)
		}
		if got := w.AppendRows(nil, 0, s, cols); !sameRows(got, want) {
			t.Errorf("AppendRows(sel=%v, cols=%v) = %v, want %v", s, cols, got, want)
		}
		checkEncoded(w.AppendEncoded(nil, 0, s, cols), want, fmt.Sprintf("AppendEncoded(sel=%v, cols=%v)", s, cols))
	}
	if got := w.AppendRows(nil, 0, sel, nil); !sameRows(got, rows) {
		t.Errorf("AppendRows(all columns) = %v, want %v", got, rows)
	}
	checkEncoded(w.AppendEncoded(nil, 0, sel, nil), rows, "AppendEncoded(all columns)")
}

// checkCanonical is checkWindow for a window over bytes EncodeRow wrote:
// there AppendEncoded must produce EncodeRow's bytes exactly, after whatever
// dst already held.
func checkCanonical(t *testing.T, w *RowWindow, rows []Row, cols []int) {
	t.Helper()
	checkWindow(t, w, rows, cols)
	var sel []int
	var want []Row
	for i := 0; i < len(rows); i += 2 {
		sel = append(sel, i)
		r := make(Row, len(cols))
		for j, c := range cols {
			r[j] = rows[i][c]
		}
		want = append(want, r)
	}
	if got := w.AppendEncoded([]byte("kept"), 0, sel, cols); !bytes.Equal(got, append([]byte("kept"), encodeRun(want)...)) {
		t.Errorf("AppendEncoded(sel=%v, cols=%v) is not EncodeRow's bytes for %v", sel, cols, want)
	}
}

// corpusRows are the decoder's awkward inputs: NULLs, kinds mixed within one
// column, empty strings, ten-byte varints, every kind.
func corpusRows() [][]Row {
	return [][]Row{
		{ // uniform, every kind
			{value.Int(1), value.Float(1.5), value.Str("a"), value.Date(9000), value.Bool(true)},
			{value.Int(-2), value.Float(-0.0), value.Str(""), value.Date(-1), value.Bool(false)},
			{value.Int(math.MinInt64), value.Float(math.Inf(1)), value.Str(strings.Repeat("x", 300)), value.Date(math.MaxInt64), value.Bool(true)},
		},
		{ // NULLs: leading, trailing, whole column
			{value.Null(), value.Str("x"), value.Null()},
			{value.Int(1), value.Null(), value.Null()},
			{value.Int(2), value.Str("y"), value.Null()},
		},
		{ // kinds mixed within a column
			{value.Int(1), value.Str("s")},
			{value.Date(1), value.Float(2)},
			{value.Float(1), value.Bool(true)},
		},
		{{value.Str("")}, {value.Str("")}},
		{},
	}
}

func TestRowWindowMatchesFromRows(t *testing.T) {
	for _, rows := range corpusRows() {
		width := 0
		if len(rows) > 0 {
			width = len(rows[0])
		}
		w, err := windowOf(encodeRun(rows), len(rows), width)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, width)
		for i := range all {
			all[i] = i
		}
		checkCanonical(t, w, rows, all)
		if width > 1 {
			checkCanonical(t, w, rows, []int{width - 1, 0})
		}
		checkCanonical(t, w, rows, []int{})
	}
}

// TestRowWindowAcrossBuffersAndReset pins the two ways windows meet pages: one
// window spanning several buffers, and one buffer split across windows, with
// vector storage reused in between.
func TestRowWindowAcrossBuffersAndReset(t *testing.T) {
	var rows []Row
	for i := 0; i < 10; i++ {
		rows = append(rows, Row{value.Int(int64(i)), value.Str(strings.Repeat("p", i)), value.Float(float64(i) / 4)})
	}
	pageA, pageB := encodeRun(rows[:4]), encodeRun(rows[4:])
	w := NewRowWindow(3)
	add := func(buf []byte, pos, n int) int {
		for i := 0; i < n; i++ {
			next, err := w.AppendRow(buf, pos)
			if err != nil {
				t.Fatal(err)
			}
			pos = next
		}
		return pos
	}
	add(pageA, 0, 4)
	pos := add(pageB, 0, 3) // window 1: all of A, the first three rows of B
	checkWindow(t, w, rows[:7], []int{0, 1, 2})
	ints := w.Col(0).Ints
	w.Reset()
	add(pageB, pos, 3) // window 2: the rest of B
	checkWindow(t, w, rows[7:], []int{0, 1, 2})
	if got := w.Col(0).Ints; &got[0] != &ints[0] {
		t.Error("the second window did not reuse the first one's vector storage")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("reset window holds %d rows", w.Len())
	}
}

// TestRowWindowFill walks a buffer several times the 16-bit offset range —
// so rows straddle every 64 KiB cut — in windows of several sizes: every
// window must hold exactly the rows DecodeRows finds there.
func TestRowWindowFill(t *testing.T) {
	var rows []Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, Row{value.Int(int64(i)), value.Str(strings.Repeat("s", i%61)), value.Null(), value.Float(float64(i))})
	}
	data := encodeRun(rows)
	if len(data) < 3*maxWindowBuf {
		t.Fatalf("the buffer is only %d bytes", len(data))
	}
	for _, size := range []int{1, 7, 4096, len(rows)} {
		w := NewRowWindow(4)
		pos := 0
		for done := 0; done < len(rows); done += w.Len() {
			n := min(size, len(rows)-done)
			next, err := w.Fill(data, pos, n)
			if err != nil {
				t.Fatalf("size %d, row %d: %v", size, done, err)
			}
			if w.Len() != n {
				t.Fatalf("size %d: window of %d rows, want %d", size, w.Len(), n)
			}
			checkCanonical(t, w, rows[done:done+n], []int{3, 1})
			pos = next
		}
		if pos != len(data) {
			t.Errorf("size %d: the walk ended at %d of %d bytes", size, pos, len(data))
		}
	}

	// A row cut short by the end of the buffer fails as DecodeRow fails, and
	// the rows before it stay indexed.
	w := NewRowWindow(4)
	cut := len(data) - 3
	_, err := w.Fill(data[:cut], 0, len(rows))
	_, _, want := DecodeRow(data[len(data)-EncodedSize(rows[len(rows)-1]) : cut])
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("truncated buffer: error %v, DecodeRow says %v", err, want)
	}
	if w.Len() != len(rows)-1 {
		t.Errorf("truncated buffer: %d rows indexed before the bad one, want %d", w.Len(), len(rows)-1)
	}
	// A single row beyond the offset range cannot be indexed.
	huge := EncodeRow(nil, Row{value.Str(strings.Repeat("h", maxWindowBuf))})
	if _, err := NewRowWindow(1).Fill(append(EncodeRow(nil, Row{value.Int(1)}), huge...), 0, 2); err == nil {
		t.Error("a row larger than a segment was accepted")
	}
}

func TestRowWindowRejectsMalformedRows(t *testing.T) {
	good := EncodeRow(nil, Row{value.Int(7), value.Str("abc")})
	tenByte := EncodeRow(nil, Row{value.Int(math.MinInt64), value.Str("")})
	overlong := append([]byte{2, 0, byte(value.KindInt)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"short header", good[:1], "schema: short row header"},
		{"truncated before a column", good[:4], "schema: truncated row at column 1"},
		{"string overruns the buffer", good[:len(good)-1], "schema: truncated string at column 1"},
		{"unterminated varint", tenByte[:6], "schema: bad varint at column 0"},
		{"overlong varint", overlong, "schema: bad varint at column 0"},
		{"unknown kind", []byte{2, 0, byte(value.KindInt), 2, 99}, "schema: unknown kind 99 at column 1"},
		{"truncated float", []byte{2, 0, byte(value.KindFloat), 1, 2, 3}, "schema: truncated float at column 0"},
		{"truncated bool", []byte{2, 0, byte(value.KindNull), byte(value.KindBool)}, "schema: truncated bool at column 1"},
		{"string length that wraps pos+len", []byte{2, 0, byte(value.KindNull), byte(value.KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "schema: truncated string at column 1"},
		{"wrong width", EncodeRow(nil, Row{value.Int(1)}), "schema: row has 1 columns, want 2"},
	}
	for _, tc := range cases {
		w := NewRowWindow(2)
		_, err := w.AppendRow(tc.buf, 0)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if w.Len() != 0 {
			t.Errorf("%s: the failed row was indexed", tc.name)
		}
		// Where DecodeRow fails, it fails with the same text.
		if _, _, derr := DecodeRow(tc.buf); derr != nil && derr.Error() != tc.want {
			t.Errorf("%s: DecodeRow says %q", tc.name, derr)
		}
	}
	if _, err := NewRowWindow(2).AppendRow(make([]byte, maxWindowBuf+1), 0); err == nil {
		t.Error("a buffer beyond the 16-bit offset range was accepted")
	}

	// Every boundary of the walk's inline cases: each row below ends in a field
	// that is the last one a case takes or the first one it leaves to
	// skipField, and is cut at every length, so the field ends exactly at the
	// buffer's end, one byte past it, and everywhere before. At each cut the
	// walk must say what DecodeRow says, and index the row only when whole.
	for _, enc := range boundaryRows() {
		for cut := 0; cut <= len(enc); cut++ {
			w := NewRowWindow(2)
			next, err := w.AppendRow(enc[:cut], 0)
			row, n, derr := DecodeRow(enc[:cut])
			if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
				t.Fatalf("% x cut at %d: the walk says %v, DecodeRow says %v", enc, cut, err, derr)
			}
			if (err == nil) != (cut == len(enc)) {
				t.Fatalf("% x cut at %d: error %v", enc, cut, err)
			}
			if err == nil {
				if next != n {
					t.Errorf("% x: the walk ends at %d, DecodeRow at %d", enc, next, n)
				}
				checkWindow(t, w, []Row{row}, []int{0, 1})
			} else if w.Len() != 0 {
				t.Errorf("% x cut at %d: the failed row was indexed", enc, cut)
			}
		}
	}
}

// boundaryRows encodes two-column rows whose second field sits on a boundary
// of AppendRow's inline cases: varints of one, two, three, four and ten bytes
// (the int64 extremes among them), a non-minimal varint, strings whose length
// takes one byte (0, 127) and two (128, and 3 written in two), a float, both
// bools and a bool byte other than 0 / 1.
func boundaryRows() [][]byte {
	var out [][]byte
	for _, v := range []value.Value{
		value.Int(-1), value.Int(63), value.Int(64), value.Date(8191), value.Date(8192), value.Int(1 << 20), value.Int(1 << 21),
		value.Int(math.MinInt64), value.Int(math.MaxInt64), value.Date(math.MinInt64),
		value.Str(""), value.Str(strings.Repeat("s", 127)), value.Str(strings.Repeat("s", 128)),
		value.Float(math.Pi), value.Bool(true), value.Bool(false), value.Null(),
	} {
		out = append(out, EncodeRow(nil, Row{v, v}))
	}
	return append(out,
		[]byte{2, 0, byte(value.KindNull), byte(value.KindInt), 0x80, 0x80, 0x00},             // three bytes, not minimal
		[]byte{2, 0, byte(value.KindNull), byte(value.KindDate), 0x80, 0x80, 0x80, 0x00},      // four bytes, not minimal
		[]byte{2, 0, byte(value.KindNull), byte(value.KindString), 0x83, 0x00, 'a', 'b', 'c'}, // a short string behind a two-byte length
		[]byte{2, 0, byte(value.KindNull), byte(value.KindBool), 7},
	)
}

// FuzzDecodeColumn holds the page-backed decoder to the boxed-row one on any
// byte string: over data read as count back-to-back rows, either DecodeRows
// succeeds on rows of one width and every Col / AppendRows agrees with
// FromRows / the rows themselves, or both decoders fail.
func FuzzDecodeColumn(f *testing.F) {
	for _, rows := range corpusRows() {
		f.Add(encodeRun(rows), uint16(len(rows)), uint32(0b1011))
	}
	var full []Row // a full heap page of rows
	for i := 0; encodedLen(full) < 4000; i++ {
		full = append(full, Row{value.Int(int64(i)), value.Str("lineitem"), value.Float(0.05), value.Date(9000 + int64(i))})
	}
	f.Add(encodeRun(full), uint16(len(full)), uint32(0b0101))
	f.Add([]byte{}, uint16(0), uint32(1))                                                       // zero-row page
	f.Add([]byte{1, 0, 1}, uint16(1), uint32(1))                                                // varint cut short
	f.Add([]byte{1, 0, 3, 5, 'a'}, uint16(1), uint32(1))                                        // string overrunning the page
	f.Add(encodeRun([]Row{{value.Int(1)}, {value.Int(1), value.Int(2)}}), uint16(2), uint32(1)) // ragged widths
	for _, enc := range boundaryRows() {                                                        // the inline cases' boundaries, whole and one byte short
		f.Add(enc, uint16(1), uint32(0b11))
		f.Add(enc[:len(enc)-1], uint16(1), uint32(0b11))
	}

	f.Fuzz(func(t *testing.T, data []byte, count uint16, colMask uint32) {
		if len(data) > maxWindowBuf {
			return
		}
		var hdr [binary.MaxVarintLen64]byte
		ref, refErr := DecodeRows(append(hdr[:binary.PutUvarint(hdr[:], uint64(count))], data...))
		width := 0
		if refErr == nil && len(ref) > 0 {
			width = len(ref[0])
			for _, r := range ref {
				if len(r) != width {
					refErr = errRagged
				}
			}
		}
		w, err := windowOf(data, int(count), width)
		if refErr != nil {
			if err == nil {
				t.Fatalf("the window accepted rows DecodeRows rejects (%v)", refErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("the window rejected rows DecodeRows accepts: %v", err)
		}
		var cols []int
		for c := 0; c < width; c++ {
			if colMask&(1<<(c%32)) != 0 {
				cols = append(cols, c)
			}
		}
		if cols == nil {
			cols = []int{}
		}
		checkWindow(t, w, ref, cols)
	})
}

var errRagged = &raggedError{}

type raggedError struct{}

func (*raggedError) Error() string { return "rows of different widths" }

func encodedLen(rows []Row) int {
	n := 0
	for _, r := range rows {
		n += EncodedSize(r)
	}
	return n
}

// TestRowWindowVectorsAreTyped pins the representation rule on the decoder
// itself (FromRows has the same test through exec.Batch).
func TestRowWindowVectorsAreTyped(t *testing.T) {
	rows := corpusRows()[0]
	w, err := windowOf(encodeRun(rows), len(rows), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind   value.Kind
		ints   bool
		floats bool
		strs   bool
	}{
		{value.KindInt, true, false, false},
		{value.KindFloat, false, true, false},
		{value.KindString, false, false, true},
		{value.KindDate, true, false, false},
		{value.KindBool, true, false, false},
	}
	for c, wc := range want {
		v := w.Col(c)
		got := []any{v.Kind, v.Ints != nil, v.Floats != nil, v.Strs != nil, v.Boxed != nil}
		if !reflect.DeepEqual(got, []any{wc.kind, wc.ints, wc.floats, wc.strs, false}) {
			t.Errorf("column %d: kind/ints/floats/strs/boxed = %v", c, got)
		}
	}
}

// TestRowWindowStringDictionary pins the column dictionary: a low-cardinality
// string column decodes without allocating a string per element once its
// values have been seen, and a column with more distinct values than the
// dictionary holds still decodes correctly.
func TestRowWindowStringDictionary(t *testing.T) {
	modes := []string{"MAIL", "SHIP", "AIR REG"}
	var rows []Row
	for i := 0; i < 300; i++ {
		rows = append(rows, Row{value.Str(modes[i%len(modes)]), value.Str(strings.Repeat("k", 1+i%(2*maxDict)))})
	}
	data := encodeRun(rows)
	w := NewRowWindow(2)
	load := func() {
		w.Reset()
		for i, pos := 0, 0; i < len(rows); i++ {
			next, err := w.AppendRow(data, pos)
			if err != nil {
				t.Fatal(err)
			}
			pos = next
		}
	}
	load()
	checkWindow(t, w, rows, []int{0, 1})
	if allocs := testing.AllocsPerRun(10, func() { load(); w.Col(0) }); allocs > 5 {
		t.Errorf("decoding a 3-value string column of %d rows allocates %.0f times", len(rows), allocs)
	}
	load()
	checkWindow(t, w, rows, []int{1, 0})
}

// TestRowWindowDictionaryEdges holds the dictionary's table to FromRows where
// its hash or its closing rule could go wrong: values that share their length
// and first eight bytes (one slot, told apart by the full compare), the empty
// string, a column of exactly maxDict values (stays open: later windows
// allocate nothing) and one whose value past maxDict arrives mid-window (closes
// there, and stays closed and correct after Reset).
func TestRowWindowDictionaryEdges(t *testing.T) {
	same := []string{"", "samehead-1", "samehead-2", "samehead-", "samehead", "s", "ss"}
	var rows []Row
	for i := 0; i < 4*maxDict; i++ {
		past := fmt.Sprintf("v%02d", i%maxDict)
		if i == 2*maxDict+5 {
			past = "the value past maxDict"
		}
		rows = append(rows, Row{value.Str(same[i%len(same)]), value.Str(fmt.Sprintf("v%02d", i%maxDict)), value.Str(past)})
	}
	data := encodeRun(rows)
	w := NewRowWindow(3)
	for round := 0; round < 3; round++ { // the dictionaries are reused after Reset
		for _, size := range []int{len(rows), 7} {
			for done, pos := 0, 0; done < len(rows); done += w.Len() {
				next, err := w.Fill(data, pos, min(size, len(rows)-done))
				if err != nil {
					t.Fatal(err)
				}
				checkWindow(t, w, rows[done:done+w.Len()], []int{0, 1, 2})
				pos = next
			}
		}
	}
	for c, open := range []bool{true, true, false} {
		if got := w.cols[c].dict.n <= maxDict; got != open {
			t.Errorf("column %d: dictionary open = %v with %d values, want %v", c, got, w.cols[c].dict.n, open)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := w.Fill(data, 0, len(rows)); err != nil {
			t.Fatal(err)
		}
		w.Col(0)
		w.Col(1)
	}); allocs != 0 {
		t.Errorf("decoding two open-dictionary columns allocates %.0f times a window", allocs)
	}
}

// TestRowWindowScanAllocatesNothing is the scan kernel's allocation gate:
// after its first window, indexing a lineitem page and decoding an Int, a
// Float and a dictionary string column of it allocates nothing.
func TestRowWindowScanAllocatesNothing(t *testing.T) {
	pages, width := lineitemPages(30)
	w := NewRowWindow(width)
	scan := func() {
		w.Reset()
		for pos := 0; pos < len(pages[0]); {
			next, err := w.AppendRow(pages[0], pos)
			if err != nil {
				t.Fatal(err)
			}
			pos = next
		}
		for _, c := range []int{0, 6, 10, 14} { // l_orderkey, l_discount, l_shipdate, l_shipmode
			if v := w.Col(c); v.Boxed != nil || v.Len() != 30 {
				t.Fatalf("column %d decoded boxed or short: %+v", c, v)
			}
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Errorf("a window after the first allocates %.0f times", allocs)
	}
}

// TestColumnBuildersMatchFromRows holds the column-wise paths to the row-wise
// reference over the decoder's awkward inputs and over a column whose strings
// outgrow the dictionary: a vector built by AppendCol — from the fields, and
// from the column's decoded vector; every row, every other row, none; at an
// offset into a longer window — by ColVec.Append, or by Gather through a
// position vector (a negative position a NULL) holds the values, in the
// representation, that FromRows gives for the same rows; Slice cuts them.
func TestColumnBuildersMatchFromRows(t *testing.T) {
	corpus := corpusRows()
	var many []Row
	for i := 0; i < 3*maxDict; i++ {
		many = append(many, Row{value.Str(fmt.Sprintf("high cardinality %d", i)), value.Str([]string{"low", "cardinality"}[i%2])})
	}
	for _, rows := range append(corpus, many) {
		if len(rows) == 0 {
			continue
		}
		width := len(rows[0])
		lead := Row(make([]value.Value, width)) // a row of NULLs ahead of the rows: base 1
		var sel, odd []int
		var at []int32
		for i := range rows {
			sel = append(sel, i)
			if at = append(at, int32(len(rows)-1-i)); i%2 == 1 {
				odd = append(odd, i)
				at[i] = -1
			}
		}
		for c := 0; c < width; c++ {
			for _, decoded := range []bool{false, true} {
				for _, s := range [][]int{sel, odd, nil} {
					w, err := windowOf(encodeRun(append([]Row{lead}, rows...)), len(rows)+1, width)
					if err != nil {
						t.Fatal(err)
					}
					if decoded {
						w.Col(c)
					}
					var picked []Row
					var got, appended ColVec
					for _, i := range s {
						picked = append(picked, rows[i])
						appended.Append(rows[i][c])
					}
					w.AppendCol(&got, c, 1, s[:len(s)/2])
					w.AppendCol(&got, c, 1, s[len(s)/2:])
					if want := FromRows(picked, c); len(s) > 0 && (!sameVec(&got, want) || !sameVec(&appended, want)) {
						t.Errorf("column %d of %v at %v (decoded=%v): AppendCol = %+v, Append = %+v, FromRows = %+v", c, rows, s, decoded, got, appended, want)
					}
					if got.Len() != len(s) || appended.Len() != len(s) {
						t.Errorf("column %d at %v: %d and %d elements, want %d", c, s, got.Len(), appended.Len(), len(s))
					}
				}
			}
			whole := FromRows(rows, c)
			var reversed []Row
			for _, a := range at {
				r := Row(make([]value.Value, width))
				if a >= 0 {
					r = rows[a]
				}
				reversed = append(reversed, r)
			}
			var got ColVec
			got.Gather(whole, at[:1]) // the vector is refilled
			if got.Gather(whole, at); !sameVec(&got, FromRows(reversed, c)) {
				t.Errorf("column %d of %v: Gather(%v) = %+v, want %+v", c, rows, at, got, FromRows(reversed, c))
			}
			if got, want := whole.Slice(1, len(rows)), FromRows(rows[1:], c); len(rows) > 1 && got.Len() != want.Len() {
				t.Errorf("column %d: Slice holds %d elements, want %d", c, got.Len(), want.Len())
			} else {
				for i := 0; i < got.Len(); i++ {
					if !sameValue(got.Value(i), rows[1+i][c]) {
						t.Errorf("column %d: Slice element %d = %v, want %v", c, i, got.Value(i), rows[1+i][c])
					}
				}
			}
		}
	}
}
