package exec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"ironsafe/internal/schema"
	"ironsafe/internal/value"
)

// Wire codec for shipping results between storage and host: a JSON schema
// header (length-prefixed) followed by the binary row batch.

type wireColumn struct {
	Name string     `json:"name"`
	Kind value.Kind `json:"kind"`
}

// EncodeResult serializes a result for transmission. Every form of a result
// holding the same rows serializes to the same bytes.
func EncodeResult(r *Result) ([]byte, error) {
	cols := make([]wireColumn, r.Sch.Len())
	for i, c := range r.Sch.Columns {
		cols[i] = wireColumn{Name: c.Name, Kind: c.Kind}
	}
	hdr, err := json.Marshal(cols)
	if err != nil {
		return nil, fmt.Errorf("exec: encoding result header: %w", err)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	out = append(out, hdr...)
	if r.enc != nil {
		out = binary.AppendUvarint(out, uint64(r.n))
		return append(out, r.enc...), nil
	}
	boxed, err := r.Boxed()
	if err != nil {
		return nil, err
	}
	return append(out, schema.EncodeRows(boxed.Rows)...), nil
}

// decodeHeader parses the schema header of an encoded result and returns the
// schema and the row batch behind it.
func decodeHeader(buf []byte) (*schema.Schema, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("exec: short result")
	}
	hl := binary.LittleEndian.Uint32(buf)
	if uint64(4+hl) > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("exec: truncated result header")
	}
	var cols []wireColumn
	if err := json.Unmarshal(buf[4:4+hl], &cols); err != nil {
		return nil, nil, fmt.Errorf("exec: decoding result header: %w", err)
	}
	sch := schema.New()
	for _, c := range cols {
		sch.Columns = append(sch.Columns, schema.Col(c.Name, c.Kind))
	}
	return sch, buf[4+hl:], nil
}

// DecodeResult reverses EncodeResult into the boxed form.
func DecodeResult(buf []byte) (*Result, error) {
	sch, batch, err := decodeHeader(buf)
	if err != nil {
		return nil, err
	}
	rows, err := schema.DecodeRows(batch)
	if err != nil {
		return nil, err
	}
	return &Result{Sch: sch, Rows: rows}, nil
}

// RetainResult reverses EncodeResult into the encoded form: it keeps buf and
// boxes nothing. buf comes from outside, so every row is checked once here —
// DecodeRow's checks, plus a column count equal to the header's — as the
// result's index is built, and a result that is returned scans without error.
// Bytes after the last row are dropped, as DecodeResult ignores them.
func RetainResult(buf []byte) (*Result, error) {
	sch, batch, err := decodeHeader(buf)
	if err != nil {
		return nil, err
	}
	count, pos, err := schema.BatchHeader(batch)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return &Result{Sch: sch, Rows: []schema.Row{}}, nil
	}
	r := &Result{Sch: sch, enc: batch[pos:], n: count}
	if err := r.index(); err != nil {
		return nil, err
	}
	return r, nil
}
