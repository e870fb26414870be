package schema

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ironsafe/internal/value"
)

// Binary row codec. Layout per row:
//
//	u16 column count
//	per column: u8 kind, then payload:
//	  NULL           -> nothing
//	  INTEGER/DATE   -> varint (zig-zag)
//	  DOUBLE         -> 8-byte little-endian IEEE bits
//	  VARCHAR        -> uvarint length + bytes
//	  BOOLEAN        -> 1 byte
//
// The codec is self-describing (kinds travel with the data) so shipped rows
// can be decoded without out-of-band schema agreement, which keeps the
// host/storage wire protocol honest about what was transferred.

// EncodeRow appends the binary encoding of r to dst and returns the result.
func EncodeRow(dst []byte, r Row) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case value.KindNull:
		case value.KindInt, value.KindDate:
			n := binary.PutVarint(tmp[:], v.AsInt())
			dst = append(dst, tmp[:n]...)
		case value.KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
		case value.KindString:
			s := v.AsString()
			n := binary.PutUvarint(tmp[:], uint64(len(s)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, s...)
		case value.KindBool:
			if v.AsBool() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// DecodeRow decodes one row from buf, returning the row and the number of
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("schema: short row header")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	pos := 2
	row := make(Row, 0, n)
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("schema: truncated row at column %d", i)
		}
		kind := value.Kind(buf[pos])
		pos++
		switch kind {
		case value.KindNull:
			row = append(row, value.Null())
		case value.KindInt, value.KindDate:
			v, sz := binary.Varint(buf[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("schema: bad varint at column %d", i)
			}
			pos += sz
			if kind == value.KindInt {
				row = append(row, value.Int(v))
			} else {
				row = append(row, value.Date(v))
			}
		case value.KindFloat:
			if pos+8 > len(buf) {
				return nil, 0, fmt.Errorf("schema: truncated float at column %d", i)
			}
			row = append(row, value.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))))
			pos += 8
		case value.KindString:
			l, sz := binary.Uvarint(buf[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("schema: bad string length at column %d", i)
			}
			pos += sz
			if l > uint64(len(buf)-pos) { // not pos+l: a forged length must not wrap
				return nil, 0, fmt.Errorf("schema: truncated string at column %d", i)
			}
			row = append(row, value.Str(string(buf[pos:pos+int(l)])))
			pos += int(l)
		case value.KindBool:
			if pos >= len(buf) {
				return nil, 0, fmt.Errorf("schema: truncated bool at column %d", i)
			}
			row = append(row, value.Bool(buf[pos] != 0))
			pos++
		default:
			return nil, 0, fmt.Errorf("schema: unknown kind %d at column %d", kind, i)
		}
	}
	return row, pos, nil
}

// EncodeRows encodes a batch of rows with a uvarint count prefix.
func EncodeRows(rows []Row) []byte {
	out := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, r := range rows {
		out = EncodeRow(out, r)
	}
	return out
}

// ErrRowCount reports a batch header claiming more rows than the bytes
// behind it can hold.
var ErrRowCount = errors.New("schema: row count exceeds the batch body")

// BatchHeader reads the count prefix of a batch written by EncodeRows and
// returns the count and the position of the first row. The count comes from
// outside, so it is checked against the smallest a row can be (its two-byte
// column count) before anyone sizes anything by it.
func BatchHeader(buf []byte) (count, pos int, err error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("schema: bad batch header")
	}
	if n > uint64(len(buf)-sz)/2 {
		return 0, 0, fmt.Errorf("%w: %d rows in %d bytes", ErrRowCount, n, len(buf)-sz)
	}
	return int(n), sz, nil
}

// DecodeRows decodes a batch written by EncodeRows.
func DecodeRows(buf []byte) ([]Row, error) {
	count, pos, err := BatchHeader(buf)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, count)
	for i := 0; i < count; i++ {
		r, n, err := DecodeRow(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("schema: row %d: %w", i, err)
		}
		rows = append(rows, r)
		pos += n
	}
	return rows, nil
}

// EncodedSize returns the encoded length of a row without allocating.
func EncodedSize(r Row) int {
	size := 2
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range r {
		size++
		switch v.Kind() {
		case value.KindInt, value.KindDate:
			size += binary.PutVarint(tmp[:], v.AsInt())
		case value.KindFloat:
			size += 8
		case value.KindString:
			s := v.AsString()
			size += binary.PutUvarint(tmp[:], uint64(len(s))) + len(s)
		case value.KindBool:
			size++
		}
	}
	return size
}
