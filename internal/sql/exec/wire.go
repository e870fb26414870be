package exec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/schema"
	"ironsafe/internal/value"
)

// Wire codec for shipping results between storage and host: a JSON schema
// header (length-prefixed) followed by the binary row batch.

type wireColumn struct {
	Name string     `json:"name"`
	Kind value.Kind `json:"kind"`
}

// EncodeResult serializes a result for transmission: ReplyParts joined. Every
// form of a result holding the same rows serializes to the same bytes.
func EncodeResult(r *Result) ([]byte, error) {
	head, rows, err := ReplyParts(r)
	if err != nil {
		return nil, err
	}
	return append(head, rows...), nil
}

// ReplyParts returns the serialization of r in two parts: head, the schema
// header and the row count, and rows, the rows in the row codec. The rows of
// the encoded form are its bytes, not a copy, so a sender that ships them
// releases r (Release) only once they are sent.
func ReplyParts(r *Result) (head, rows []byte, err error) {
	cols := make([]wireColumn, r.Sch.Len())
	for i, c := range r.Sch.Columns {
		cols[i] = wireColumn{Name: c.Name, Kind: c.Kind}
	}
	hdr, err := json.Marshal(cols)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: encoding result header: %w", err)
	}
	head = make([]byte, 0, 4+len(hdr)+binary.MaxVarintLen64)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(hdr)))
	head = append(head, hdr...)
	if r.enc != nil {
		return binary.AppendUvarint(head, uint64(r.n)), r.enc, nil
	}
	boxed, err := r.Boxed()
	if err != nil {
		return nil, nil, err
	}
	batch := schema.EncodeRows(boxed.Rows)
	_, pre := binary.Uvarint(batch) // the row count's length
	return append(head, batch[:pre]...), batch[pre:], nil
}

// Release hands back what r holds in pools and leaves r empty: the buffer of
// its encoded form, where that is a pool buffer, and the index over a
// retained reply (RetainResult). Only the last holder of r may release it,
// once nothing reads its rows any more: the storage node once the reply is
// sent or has failed, the host once the statement over the reply has ended.
// The boxed and the columnar form are left as they are.
func (r *Result) Release() {
	if r.pooled {
		bufpool.Release(r.enc)
	}
	if r.all != nil && r.all.win != nil {
		r.all.win.Release()
	} else if !r.pooled {
		return // the boxed or the columnar form, or released already
	}
	r.enc, r.pooled, r.n, r.all = nil, false, 0, nil
}

// decodeHeader parses the schema header of an encoded result and returns the
// schema and the row batch behind it.
func decodeHeader(buf []byte) (*schema.Schema, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("exec: short result")
	}
	hl := binary.LittleEndian.Uint32(buf)
	if uint64(hl) > uint64(len(buf)-4) { // not 4+hl: it wraps a uint32
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
