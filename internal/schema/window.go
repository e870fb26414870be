package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"ironsafe/internal/value"
)

// RowWindow is a window of consecutive encoded rows that still live in the
// buffers they were read from (verified plaintext heap pages). It is the
// late-materializing half of the row codec: AppendRow makes one structural
// pass over a row — every field, referenced or not, with DecodeRow's checks
// and error texts — and records where each field starts; after that Col
// decodes one column of the whole window straight into a typed vector and
// AppendRows boxes only the rows and columns a consumer keeps.
//
// A window is reused: Reset empties it but keeps its index and vector
// storage, so a scan allocates them once. Vectors returned by Col are
// therefore valid only until the next Reset. Buffers are only read.
type RowWindow struct {
	width int
	segs  []rowSeg
	// offs holds, per row, the offset of each of its width fields' kind
	// bytes within the row's buffer.
	offs []uint16
	cols []windowCol
	all  []int // the identity column list, for AppendRows(…, nil)
}

// rowSeg is a run of window rows sharing one buffer; end is the window row
// index one past the run.
type rowSeg struct {
	buf []byte
	end int
}

// windowCol is one column's reusable vector storage.
type windowCol struct {
	ColBuf
	fresh bool // vec holds the current window
	// dict holds the first maxDict distinct values of a string column, so a
	// low-cardinality column (l_shipmode, o_orderstatus) fills its vectors
	// with shared strings instead of allocating one per element. Allocated by
	// the first string looked up and kept across windows, like the vectors.
	dict *strDict
}

// maxDict bounds a column's dictionary; a column with more distinct values
// than this stops consulting it.
const maxDict = 32

// strDict is an open-addressed table from a value's bytes to the one string
// made of them: slots hold 1 + an index into vals (0: empty), probed linearly
// from a hash of the length and the leading eight bytes (of a shorter value,
// the first, middle and last byte), and a hit is a full compare. The value
// past maxDict closes the table, so half the slots stay empty.
type strDict struct {
	n     int
	slots [64]uint8
	vals  [maxDict + 1]string
}

// str returns b as a string shared with earlier equal values of the column,
// while the column stays low-cardinality; false once it has not.
func (c *windowCol) str(b []byte) (string, bool) {
	d := c.dict
	if d == nil {
		d = new(strDict)
		c.dict = d
	}
	if d.n > maxDict {
		return "", false
	}
	lead := uint64(len(b))
	if len(b) >= 8 {
		lead ^= binary.LittleEndian.Uint64(b)
	} else if len(b) > 0 {
		lead ^= uint64(b[0])<<8 | uint64(b[len(b)/2])<<16 | uint64(b[len(b)-1])<<24
	}
	h := int(lead * 0x9e3779b97f4a7c15 >> 58)
	for ; d.slots[h] != 0; h = (h + 1) % len(d.slots) {
		if s := d.vals[d.slots[h]-1]; s == string(b) { // the conversion does not allocate
			return s, true
		}
	}
	s := string(b)
	d.vals[d.n] = s
	d.n++ // the entry past maxDict closes the dictionary
	d.slots[h] = uint8(d.n)
	return s, true
}

// maxWindowBuf bounds the buffers a window indexes: field offsets are kept
// in 16 bits (heap pages are 4 KiB).
const maxWindowBuf = math.MaxUint16 + 1

// NewRowWindow returns an empty window over rows of width columns.
func NewRowWindow(width int) *RowWindow {
	w := &RowWindow{width: width, cols: make([]windowCol, width), all: make([]int, width)}
	for i := range w.all {
		w.all[i] = i
	}
	return w
}

// Len returns the number of rows in the window.
func (w *RowWindow) Len() int {
	if len(w.segs) == 0 {
		return 0
	}
	return w.segs[len(w.segs)-1].end
}

// Reset empties the window, keeping its storage for the next one.
func (w *RowWindow) Reset() {
	clear(w.segs) // drop the page references
	w.segs = w.segs[:0]
	w.offs = w.offs[:0]
	for i := range w.cols {
		w.cols[i].fresh = false
	}
}

// AppendRow indexes the row encoded at buf[pos:], which must end within buf,
// and returns the position after it. It fails exactly where DecodeRow would,
// and additionally on a row whose column count is not the window's width.
func (w *RowWindow) AppendRow(buf []byte, pos int) (int, error) {
	if len(buf) > maxWindowBuf {
		return 0, fmt.Errorf("schema: row buffer of %d bytes exceeds the %d-byte window limit", len(buf), maxWindowBuf)
	}
	if len(buf)-pos < 2 {
		return 0, fmt.Errorf("schema: short row header")
	}
	if n := int(binary.LittleEndian.Uint16(buf[pos:])); n != w.width {
		return 0, fmt.Errorf("schema: row has %d columns, want %d", n, w.width)
	}
	pos += 2
	base := len(w.offs)
	w.offs = slices.Grow(w.offs, w.width)[:base+w.width]
	offs := w.offs[base:]
	for i := range offs {
		if pos >= len(buf) {
			w.offs = w.offs[:base]
			return 0, fmt.Errorf("schema: truncated row at column %d", i)
		}
		offs[i] = uint16(pos)
		// The well-formed common field, every byte of it found inside buf by
		// its case, is stepped over here. Anything else — a longer varint, any
		// malformed or cut field — is left to skipField, the one full validator
		// and only writer of an error text, whose verdict the walk cannot change.
		switch rest := buf[pos+1:]; value.Kind(buf[pos]) {
		case value.KindNull:
			pos++
			continue
		case value.KindInt, value.KindDate: // a varint of one to three bytes
			if len(rest) > 0 && rest[0] < 0x80 {
				pos += 2
				continue
			}
			if len(rest) > 1 && rest[1] < 0x80 {
				pos += 3
				continue
			}
			if len(rest) > 2 && rest[2] < 0x80 {
				pos += 4
				continue
			}
		case value.KindFloat:
			if len(rest) >= 8 {
				pos += 9
				continue
			}
		case value.KindString: // a length of one byte
			if len(rest) > 0 && rest[0] < 0x80 && int(rest[0]) < len(rest) {
				pos += 2 + int(rest[0])
				continue
			}
		case value.KindBool:
			if len(rest) > 0 {
				pos += 2
				continue
			}
		}
		next, err := skipField(buf, pos, i)
		if err != nil {
			w.offs = w.offs[:base]
			return 0, err
		}
		pos = next
	}
	if last := len(w.segs) - 1; last >= 0 && &w.segs[last].buf[0] == &buf[0] {
		w.segs[last].end++
	} else {
		w.segs = append(w.segs, rowSeg{buf: buf, end: w.Len() + 1})
	}
	return pos, nil
}

// Fill empties the window and indexes up to max rows encoded back to back at
// buf[pos:] (the layout EncodeRows writes after its count), returning the
// position after the last one. buf may be of any size: the window cuts it
// into segments of at most maxWindowBuf bytes that begin at a row, so a row
// is never indexed across a cut.
func (w *RowWindow) Fill(buf []byte, pos, max int) (int, error) {
	w.Reset()
	// Room for every field offset at once; a row is at least its header and a
	// kind byte per column, which bounds what a forged count can reserve.
	w.offs = slices.Grow(w.offs, min(max, (len(buf)-pos)/(2+w.width))*w.width)
	seg := pos // where the current segment begins in buf
	for i := 0; i < max; i++ {
		end := min(seg+maxWindowBuf, len(buf))
		next, err := w.AppendRow(buf[seg:end], pos-seg)
		if err != nil && pos > seg && end < len(buf) {
			// The segment may have cut this row short (every check in
			// AppendRow is a bounds check, so a cut row fails, it is never
			// misread): begin a new segment at it.
			seg, end = pos, min(pos+maxWindowBuf, len(buf))
			next, err = w.AppendRow(buf[seg:end], 0)
		}
		if err != nil {
			return 0, err // w.Len() rows were indexed before the bad one
		}
		pos = seg + next
	}
	return pos, nil
}

// skipField validates the field of column col whose kind byte is at buf[pos]
// and returns the position after it.
func skipField(buf []byte, pos, col int) (int, error) {
	kind := value.Kind(buf[pos])
	pos++
	switch kind {
	case value.KindNull:
	case value.KindInt, value.KindDate:
		_, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("schema: bad varint at column %d", col)
		}
		pos += sz
	case value.KindFloat:
		if pos+8 > len(buf) {
			return 0, fmt.Errorf("schema: truncated float at column %d", col)
		}
		pos += 8
	case value.KindString:
		l, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("schema: bad string length at column %d", col)
		}
		pos += sz
		if l > uint64(len(buf)-pos) { // not pos+l: a forged length must not wrap
			return 0, fmt.Errorf("schema: truncated string at column %d", col)
		}
		pos += int(l)
	case value.KindBool:
		if pos >= len(buf) {
			return 0, fmt.Errorf("schema: truncated bool at column %d", col)
		}
		pos++
	default:
		return 0, fmt.Errorf("schema: unknown kind %d at column %d", kind, col)
	}
	return pos, nil
}

// The field readers below run on fields AppendRow already validated, so they
// cannot fail.

func fieldInt(buf []byte, pos int) int64 {
	v, _ := binary.Varint(buf[pos+1:])
	return v
}

func fieldFloat(buf []byte, pos int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+1:]))
}

func fieldBytes(buf []byte, pos int) []byte {
	l, sz := binary.Uvarint(buf[pos+1:])
	start := pos + 1 + sz
	return buf[start : start+int(l)]
}

func fieldString(buf []byte, pos int) string { return string(fieldBytes(buf, pos)) }

func fieldBool(buf []byte, pos int) bool { return buf[pos+1] != 0 }

// fieldValue boxes the field whose kind byte is at buf[pos], as DecodeRow
// would.
func fieldValue(buf []byte, pos int) value.Value {
	switch value.Kind(buf[pos]) {
	case value.KindInt:
		return value.Int(fieldInt(buf, pos))
	case value.KindDate:
		return value.Date(fieldInt(buf, pos))
	case value.KindFloat:
		return value.Float(fieldFloat(buf, pos))
	case value.KindString:
		return value.Str(fieldString(buf, pos))
	case value.KindBool:
		return value.Bool(fieldBool(buf, pos))
	}
	return value.Null()
}

// Col decodes column col of the window into a vector, choosing the
// representation as FromRows does: unboxed when every row holds the same
// non-null kind, boxed otherwise. The vector is memoized until Reset and its
// storage reused by later windows.
func (w *RowWindow) Col(col int) *ColVec {
	c := &w.cols[col]
	if c.fresh {
		return &c.vec
	}
	c.fresh = true
	n := w.Len()
	kind := value.KindNull
	if n > 0 {
		kind = value.Kind(w.segs[0].buf[w.offs[col]])
	}
	uniform := true
	switch kind {
	case value.KindInt, value.KindDate, value.KindBool:
		c.ints = resize(c.ints, n)
		uniform = w.decode(col, kind, c.ints, nil)
		c.vec = ColVec{Kind: kind, Ints: c.ints, n: n}
	case value.KindFloat:
		c.floats = resize(c.floats, n)
		uniform = w.decode(col, kind, nil, c.floats)
		c.vec = ColVec{Kind: kind, Floats: c.floats, n: n}
	case value.KindString:
		c.strs = resize(c.strs, n)
		shared, size := true, 0
		uniform = w.fill(col, kind, func(r int, buf []byte, pos int) {
			b := fieldBytes(buf, pos)
			if size += len(b); shared {
				c.strs[r], shared = c.str(b)
			}
		})
		if uniform && !shared {
			// A high-cardinality column (o_comment, p_name): one string holds
			// the window's values back to back and the elements are cut from
			// it, so the column costs one allocation, not one per row.
			var all strings.Builder
			all.Grow(size)
			w.fill(col, kind, func(r int, buf []byte, pos int) { all.Write(fieldBytes(buf, pos)) })
			end := 0
			w.fill(col, kind, func(r int, buf []byte, pos int) {
				start := end
				end += len(fieldBytes(buf, pos))
				c.strs[r] = all.String()[start:end]
			})
		}
		c.vec = ColVec{Kind: kind, Strs: c.strs, n: n}
	default:
		uniform = false
	}
	if !uniform {
		c.boxed = resize(c.boxed, n)
		w.fill(col, value.KindNull, func(r int, buf []byte, pos int) { c.boxed[r] = fieldValue(buf, pos) })
		c.vec = ColVec{Boxed: c.boxed, n: n}
	}
	return &c.vec
}

// decode is fill for the fixed-shape kinds, without a call per element: it
// decodes column col of every row into ints (Int, Date, Bool) or floats, and
// stops and reports false at the first row holding any other kind.
func (w *RowWindow) decode(col int, kind value.Kind, ints []int64, floats []float64) bool {
	r := 0
	for _, s := range w.segs {
		for ; r < s.end; r++ {
			pos := int(w.offs[r*w.width+col])
			if value.Kind(s.buf[pos]) != kind {
				return false
			}
			switch kind {
			case value.KindFloat:
				floats[r] = fieldFloat(s.buf, pos)
			case value.KindBool:
				ints[r] = 0
				if fieldBool(s.buf, pos) {
					ints[r] = 1
				}
			default:
				ints[r] = fieldInt(s.buf, pos)
			}
		}
	}
	return true
}

// fill calls set for column col of every row, in order. With a non-null kind
// it stops and reports false at the first row holding any other kind.
func (w *RowWindow) fill(col int, kind value.Kind, set func(r int, buf []byte, pos int)) bool {
	r := 0
	for _, s := range w.segs {
		for ; r < s.end; r++ {
			pos := int(w.offs[r*w.width+col])
			if kind != value.KindNull && value.Kind(s.buf[pos]) != kind {
				return false
			}
			set(r, s.buf, pos)
		}
	}
	return true
}

// AppendEncoded is AppendRows without the boxing: it appends the rows at the
// ascending window positions base+sel[k], keeping only columns cols (nil:
// every column) in that order, to dst in the row codec. Fields are copied as they
// are, so over rows EncodeRow wrote the result is byte for byte EncodeRow of
// the rows AppendRows would box.
func (w *RowWindow) AppendEncoded(dst []byte, base int, sel []int, cols []int) []byte {
	if cols == nil {
		cols = w.all
	}
	si := 0
	for _, r := range sel {
		r += base
		for r >= w.segs[si].end {
			si++
		}
		buf, offs := w.segs[si].buf, w.offs[r*w.width:(r+1)*w.width]
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(cols)))
		for _, c := range cols {
			start := int(offs[c])
			var end int
			if c+1 < w.width {
				end = int(offs[c+1])
			} else {
				end, _ = skipField(buf, start, c) // validated by AppendRow
			}
			dst = append(dst, buf[start:end]...)
		}
	}
	return dst
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendRows boxes the rows at the ascending window positions base+sel[k],
// keeping only columns cols (nil: every column) in that order, and appends
// them to dst. The rows own their storage.
func (w *RowWindow) AppendRows(dst []Row, base int, sel []int, cols []int) []Row {
	if cols == nil {
		cols = w.all
	}
	si := 0
	for _, r := range sel {
		r += base
		for r >= w.segs[si].end {
			si++
		}
		buf, base := w.segs[si].buf, r*w.width
		row := make(Row, len(cols))
		for j, c := range cols {
			row[j] = fieldValue(buf, int(w.offs[base+c]))
		}
		dst = append(dst, row)
	}
	return dst
}

// AppendCol is the column-wise twin of AppendRows: it appends column col of
// the rows at the ascending window positions base+sel[k] to the vector dst
// (see ColVec.Append) — from the column's vector where Col has decoded it for
// this window, else field by field, so that a column nobody evaluates is
// decoded for the kept rows only.
func (w *RowWindow) AppendCol(dst *ColVec, col, base int, sel []int) {
	c := &w.cols[col]
	if c.fresh {
		dst.AppendSel(&c.vec, base, sel)
		return
	}
	si := 0
	for _, r := range sel {
		r += base
		for r >= w.segs[si].end {
			si++
		}
		buf, pos := w.segs[si].buf, int(w.offs[r*w.width+col])
		if value.Kind(buf[pos]) != value.KindString {
			dst.Append(fieldValue(buf, pos))
		} else if s, ok := c.str(fieldBytes(buf, pos)); ok {
			dst.Append(value.Str(s))
		} else {
			dst.Append(value.Str(fieldString(buf, pos)))
		}
	}
}
