package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// relCatalog is a test catalog of relations in any form.
type relCatalog map[string]Relation

func (c relCatalog) Relation(name string) (Relation, error) {
	r, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return r, nil
}

// retained returns rel's rows as the host holds a reply: encoded.
func retained(t testing.TB, rel *MemRelation) *Result {
	t.Helper()
	blob, err := EncodeResult(&Result{Sch: rel.Sch, Rows: rel.Rows})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RetainResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) > 0 && res.Rows != nil {
		t.Fatal("RetainResult boxed the reply")
	}
	return res
}

// columnar returns rel's rows as a scan leaves them between two operators:
// one vector per column.
func columnar(t testing.TB, rel *MemRelation) *Result {
	t.Helper()
	sel, err := parser.ParseSelect("SELECT * FROM r")
	if err != nil {
		t.Fatal(err)
	}
	b := &builder{cat: memCatalog{"r": rel}, batchRows: 64, stmt: sel}
	scan, _, err := b.buildFrom(sel, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := scan.parts[0]
	if res.cols == nil || res.Rows != nil || res.NumRows() != len(rel.Rows) {
		t.Fatalf("the scan's output is not columnar: %d rows of %d", res.NumRows(), len(rel.Rows))
	}
	return &Result{Sch: rel.Sch, cols: res.cols, n: res.n}
}

func mustRun(t *testing.T, sql string, cat Catalog, m *simtime.Meter, batch int) *Result {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, err := RunBatched(sel, cat, m, batch)
	if err != nil {
		t.Fatalf("%s (batch=%d): %v", sql, batch, err)
	}
	return res
}

// TestBareProjectionPassesRowsThrough pins step 2: a select list that merely
// names columns computes nothing. Over a boxed input that already has the
// statement's shape the output rows ARE the input rows; any other column
// selection copies each kept value once, without building a vector; and the
// charges are the computed projection's, in both modes.
func TestBareProjectionPassesRowsThrough(t *testing.T) {
	t2 := &MemRelation{Sch: schema.New(schema.Col("a", value.KindInt), schema.Col("b", value.KindString))}
	for i := 0; i < 5000; i++ {
		t2.Rows = append(t2.Rows, schema.Row{value.Int(int64(i)), value.Str("v")})
	}
	cat := memCatalog{"t": t2}
	for _, batch := range []int{1, DefaultBatchRows} {
		for _, sql := range []string{"SELECT a, b FROM t", "SELECT * FROM t", "SELECT t.a AS x, b FROM t", "SELECT x.a, x.b FROM (SELECT a, b FROM t) x"} {
			res := mustRun(t, sql, cat, nil, batch)
			if len(res.Rows) != len(t2.Rows) {
				t.Fatalf("%s (batch=%d): %d rows", sql, batch, len(res.Rows))
			}
			for i := range res.Rows {
				if &res.Rows[i][0] != &t2.Rows[i][0] {
					t.Fatalf("%s (batch=%d): row %d was copied", sql, batch, i)
				}
			}
		}
		if res := mustRun(t, "SELECT a, b FROM t LIMIT 3", cat, nil, batch); len(res.Rows) != 3 || &res.Rows[2][0] != &t2.Rows[2][0] {
			t.Errorf("batch=%d: LIMIT over a pass-through returned %d rows", batch, len(res.Rows))
		}
		if res := mustRun(t, "SELECT a, b FROM t WHERE a < 0", cat, nil, batch); res.Rows == nil || len(res.Rows) != 0 {
			t.Errorf("batch=%d: an empty pass-through returned %v", batch, res.Rows)
		}
	}

	// Nothing per row is allocated, so 5000 rows cost what 10 rows cost, give
	// or take the doubling growth of the output slice and of the builder's
	// identity selection.
	small := memCatalog{"t": &MemRelation{Sch: t2.Sch, Rows: t2.Rows[:10]}}
	sel, _ := parser.ParseSelect("SELECT a, b FROM t")
	allocs := func(c Catalog) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RunBatched(sel, c, nil, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(small), allocs(cat); many > few+50 {
		t.Errorf("SELECT a, b FROM t allocates %.0f times over 5000 rows, %.0f over 10", many, few)
	}

	// Column selections that are not the identity: same rows and same
	// data-work charges in both modes, values copied as they are.
	wide := memCatalog{"lineitem": lineitemish(300, true)}
	for _, sql := range []string{
		"SELECT l_shipmode, l_orderkey FROM lineitem",
		"SELECT l_orderkey, l_orderkey FROM lineitem WHERE l_size > 10",
		"SELECT *, l_flag FROM lineitem",
		"SELECT l.l_size FROM lineitem l, lineitem m WHERE l.l_orderkey = m.l_orderkey AND m.l_size < 5",
		"SELECT x.l_size, x.n FROM (SELECT l_size, count(*) AS n FROM lineitem GROUP BY l_size) x",
		"SELECT l_orderkey FROM lineitem WHERE EXISTS (SELECT m.l_size FROM lineitem m WHERE m.l_orderkey = lineitem.l_orderkey AND m.l_size > 40)",
		"SELECT l_orderkey, l_quantity FROM lineitem WHERE l_size < 30 LIMIT 7",
	} {
		var mr, mv simtime.Meter
		row := mustRun(t, sql, wide, &mr, 1)
		vec := mustRun(t, sql, wide, &mv, 64)
		if !reflect.DeepEqual(row.Rows, vec.Rows) || !reflect.DeepEqual(row.Sch, vec.Sch) {
			t.Errorf("%s: vector mode returns %d rows, row mode %d", sql, len(vec.Rows), len(row.Rows))
		}
		sr, sv := mr.Snapshot(), mv.Snapshot()
		sr.Batches, sv.Batches = 0, 0
		if sr != sv {
			t.Errorf("%s: charges diverge:\n  vector: %+v\n  row:    %+v", sql, sv, sr)
		}
	}

	res, tr, err := Explain(sel, cat, nil)
	if err != nil || len(res.Rows) != 5000 || !strings.Contains(tr.String(), "project: pass-through") {
		t.Errorf("trace of a pass-through:\n%s (%v)", tr, err)
	}
}

// mixedKinds is a relation whose columns hold several kinds at once, NULLs
// included — the shapes that force a window's boxed vectors.
func mixedKinds(n int) *MemRelation {
	rel := &MemRelation{Sch: schema.New(schema.Col("k", value.KindInt), schema.Col("v", value.KindString), schema.Col("w", value.KindFloat))}
	for i := 0; i < n; i++ {
		row := schema.Row{value.Int(int64(i)), value.Str("s"), value.Float(float64(i))}
		switch i % 4 {
		case 1:
			row[1], row[2] = value.Int(int64(i)), value.Null()
		case 2:
			row[1], row[2] = value.Null(), value.Date(int64(i))
		case 3:
			row[1] = value.Bool(i%8 == 3)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// TestHostScanOverRetainedReply is the host-side differential of step 3: a
// reply kept encoded, the same rows held as column vectors, and the same rows
// boxed in a MemRelation give identical rows and identical charges through the
// scan, whatever the batch size — typed columns, NULL-bearing ones, kinds mixed
// within a column, no rows at all, and a reply several times the window's
// 64 KiB segment.
func TestHostScanOverRetainedReply(t *testing.T) {
	big := lineitemish(6000, false) // ~0.5 MB encoded
	if blob, _ := EncodeResult(&Result{Sch: big.Sch, Rows: big.Rows}); len(blob) < 4<<16 {
		t.Fatalf("the large reply is only %d bytes", len(blob))
	}
	rels := map[string]*MemRelation{
		"typed": lineitemish(200, false),
		"nulls": lineitemish(200, true),
		"empty": {Sch: lineitemish(0, false).Sch},
		"big":   big,
	}
	queries := []string{
		"SELECT l_orderkey, l_shipmode FROM lineitem WHERE l_commitdate < l_receiptdate",
		"SELECT * FROM lineitem",
		"SELECT l_shipmode, count(*), sum(l_quantity) FROM lineitem WHERE l_size > 20 GROUP BY l_shipmode ORDER BY l_shipmode",
		"SELECT l1.l_orderkey FROM lineitem l1 WHERE l1.l_receiptdate > l1.l_commitdate AND EXISTS (SELECT * FROM lineitem l2 WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_size <> l1.l_size)",
		"SELECT l_orderkey FROM lineitem WHERE l_flag AND l_size > (SELECT 25)", // a conjunct the scan cannot take
	}
	for name, mem := range rels {
		forms := map[string]*Result{"the retained reply": retained(t, mem), "column vectors": columnar(t, mem)}
		for _, sql := range queries {
			for _, batch := range []int{1, 2, 7, DefaultBatchRows} {
				if name == "big" && batch < 7 {
					continue
				}
				var mm simtime.Meter
				want := mustRun(t, sql, memCatalog{"lineitem": mem}, &mm, batch)
				for form, rel := range forms {
					var mf simtime.Meter
					got := mustRun(t, sql, relCatalog{"lineitem": rel}, &mf, batch)
					if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Sch, want.Sch) {
						t.Errorf("%s over %s (batch=%d): %d rows from %s, %d from boxed rows", sql, name, batch, len(got.Rows), form, len(want.Rows))
					}
					if mm.Snapshot() != mf.Snapshot() {
						t.Errorf("%s over %s (batch=%d): charges diverge:\n  %s: %+v\n  boxed: %+v", sql, name, batch, form, mf.Snapshot(), mm.Snapshot())
					}
				}
			}
		}
	}
	mixed := mixedKinds(100)
	for form, rel := range map[string]*Result{"the retained reply": retained(t, mixed), "column vectors": columnar(t, mixed)} {
		for _, sql := range []string{"SELECT * FROM m", "SELECT v, k FROM m WHERE w IS NOT NULL", "SELECT k FROM m WHERE v IS NULL OR w IS NULL"} {
			for _, batch := range []int{1, 2, 7, DefaultBatchRows} {
				want := mustRun(t, sql, memCatalog{"m": mixed}, nil, batch)
				got := mustRun(t, sql, relCatalog{"m": rel}, nil, batch)
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s (batch=%d): %v from %s, %v from boxed rows", sql, batch, got.Rows, form, want.Rows)
				}
			}
		}
	}
}

// TestResultFormsEncodeAlike: the three forms of one result are the same bytes
// on the wire and the same rows through Boxed, Scan and ScanBatch, the encoded
// form round-trips through both decoders, and a fragment over a relation that
// delivers boxed batches encodes them itself.
func TestResultFormsEncodeAlike(t *testing.T) {
	for _, mem := range []*MemRelation{lineitemish(300, true), mixedKinds(50), {Sch: mixedKinds(0).Sch}} {
		boxed := &Result{Sch: mem.Sch, Rows: mem.Rows}
		want, err := EncodeResult(boxed)
		if err != nil {
			t.Fatal(err)
		}
		for form, res := range map[string]*Result{"encoded": retained(t, mem), "columnar": columnar(t, mem)} {
			if got, _ := EncodeResult(res); !bytes.Equal(got, want) {
				t.Errorf("the %s form encodes to different bytes", form)
			}
			if res.NumRows() != len(mem.Rows) {
				t.Errorf("%s: NumRows = %d, want %d", form, res.NumRows(), len(mem.Rows))
			}
			back, err := res.Boxed()
			if err != nil || !reflect.DeepEqual(back.Rows, append([]schema.Row{}, mem.Rows...)) {
				t.Errorf("%s: Boxed() = %d rows (%v), want %d", form, len(back.Rows), err, len(mem.Rows))
			}
			var scanned, batched []schema.Row
			if err := res.Scan(func(r schema.Row) error { scanned = append(scanned, r); return nil }); err != nil || !sameRows(scanned, mem.Rows) {
				t.Errorf("%s: Scan delivered %d rows (%v)", form, len(scanned), err)
			}
			if err := res.ScanBatch(7, func(bt *Batch) error {
				batched = bt.AppendRows(batched, seqInts(0, bt.Len()), nil)
				return nil
			}); err != nil || !sameRows(batched, mem.Rows) {
				t.Errorf("%s: ScanBatch delivered %d rows (%v)", form, len(batched), err)
			}
		}
		if b2, _ := boxed.Boxed(); b2 != boxed {
			t.Error("Boxed() of a boxed result is not the result itself")
		}
		for form, res := range map[string]*Result{"boxed": boxed, "encoded": retained(t, mem), "columnar": columnar(t, mem)} {
			if head, rows, err := ReplyParts(res); err != nil || !bytes.Equal(append(head, rows...), want) {
				t.Errorf("the %s form's reply parts do not join to its encoding (%v)", form, err)
			}
		}
	}

	mem := lineitemish(300, false)
	sel, _ := parser.ParseSelect("SELECT l_shipmode, l_orderkey FROM lineitem WHERE l_size > 25")
	var mf, mb simtime.Meter
	frag, err := RunFragment(sel, memCatalog{"lineitem": mem}, &mf, 64)
	if err != nil {
		t.Fatal(err)
	}
	boxed, err := RunBatched(sel, memCatalog{"lineitem": mem}, &mb, 64)
	if err != nil {
		t.Fatal(err)
	}
	if frag.Rows != nil || frag.NumRows() != len(boxed.Rows) || len(boxed.Rows) == 0 {
		t.Fatalf("fragment: Rows=%v, %d rows; boxed run: %d rows", frag.Rows != nil, frag.NumRows(), len(boxed.Rows))
	}
	fb, _ := EncodeResult(frag)
	bb, _ := EncodeResult(boxed)
	if !bytes.Equal(fb, bb) || mf.Snapshot() != mb.Snapshot() {
		t.Errorf("fragment and boxed run differ: %d vs %d bytes, charges %+v vs %+v", len(fb), len(bb), mf.Snapshot(), mb.Snapshot())
	}
	// Nothing has indexed the scan's own encoding yet: a column read of it
	// does, and does not see a result of no rows.
	key := chainOf(frag, nil).batch(0, frag.NumRows()).Col(1)
	for k, row := range boxed.Rows {
		if key.Len() != len(boxed.Rows) || key.Value(k) != row[1] {
			t.Fatalf("column 1 of the unindexed fragment: %d values, want %d; or value %d differs", key.Len(), len(boxed.Rows), k)
		}
	}
	if head, rows, err := ReplyParts(frag); err != nil || !bytes.Equal(append(head, rows...), bb) {
		t.Errorf("the fragment's reply parts do not join to the boxed run's encoding (%v)", err)
	}
	// Anything that is not a bare shipment stays boxed.
	for _, sql := range []string{
		"SELECT l_orderkey FROM lineitem WHERE l_size > 25 LIMIT 5",
		"SELECT l_orderkey + 1 FROM lineitem",
		"SELECT count(*) FROM lineitem",
		"SELECT DISTINCT l_shipmode FROM lineitem",
		"SELECT l_orderkey FROM lineitem ORDER BY l_orderkey",
		"SELECT l_orderkey FROM lineitem WHERE l_size > (SELECT 25)",
		"SELECT l.l_orderkey FROM lineitem l, lineitem m WHERE l.l_orderkey = m.l_orderkey",
		"SELECT x.l_orderkey FROM (SELECT l_orderkey FROM lineitem) x",
	} {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		frag, err := RunFragment(sel, memCatalog{"lineitem": mem}, nil, 64)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := mustRun(t, sql, memCatalog{"lineitem": mem}, nil, 64)
		if frag.Rows == nil || !reflect.DeepEqual(frag.Rows, want.Rows) {
			t.Errorf("%s: the fragment run is not the boxed run", sql)
		}
	}
}

// replyOf assembles a reply by hand: the header of sch, then batch.
func replyOf(sch *schema.Schema, batch []byte) []byte {
	blob, _ := EncodeResult(&Result{Sch: sch})
	return append(blob[:len(blob)-1], batch...) // drop the zero count
}

func TestRetainResultRejectsMalformedReplies(t *testing.T) {
	sch := schema.New(schema.Col("a", value.KindInt), schema.Col("b", value.KindString))
	rows := []schema.Row{{value.Int(1), value.Str("x")}, {value.Int(2), value.Null()}}
	body := schema.EncodeRows(rows)[1:]
	count := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
	for _, tc := range []struct {
		name  string
		reply []byte
		want  string
	}{
		{"short", []byte{1, 2}, "exec: short result"},
		{"header overruns", []byte{200, 0, 0, 0, '['}, "exec: truncated result header"},
		{"no batch", replyOf(sch, nil), "schema: bad batch header"},
		{"forged count", replyOf(sch, append(count(1<<62), body...)), "schema: row count exceeds the batch body"},
		{"one row too many", replyOf(sch, append(count(3), body...)), "exec: result row 2: schema: short row header"},
		{"truncated row", replyOf(sch, append(count(2), body[:len(body)-1]...)), "exec: result row 1: schema: truncated row at column 1"},
		{"unknown kind", replyOf(sch, append(count(1), 2, 0, 99, 0)), "exec: result row 0: schema: unknown kind 99 at column 0"},
		{"ragged row", replyOf(sch, append(count(1), schema.EncodeRow(nil, schema.Row{value.Int(1)})...)), "exec: result row 0: schema: row has 1 columns, want 2"},
	} {
		res, err := RetainResult(tc.reply)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: RetainResult = %v, %v; want error %q", tc.name, res, err, tc.want)
		}
		if _, derr := DecodeResult(tc.reply); derr == nil && tc.name != "ragged row" {
			t.Errorf("%s: DecodeResult accepts what RetainResult rejects", tc.name)
		}
	}
	// Bytes after the last row are ignored by both decoders and not retained.
	res, err := RetainResult(replyOf(sch, append(append(count(2), body...), "garbage"...)))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := EncodeResult(res); !bytes.Equal(again, replyOf(sch, append(count(2), body...))) {
		t.Error("trailing bytes were retained")
	}
}

// FuzzDecodeResult holds the two reply decoders to each other on any bytes:
// neither panics; what RetainResult accepts DecodeResult accepts, with the
// same rows through Boxed, through ScanBatch and on re-encoding; and what
// DecodeResult accepts RetainResult rejects only for a row whose column count
// is not the header's.
func FuzzDecodeResult(f *testing.F) {
	sch := schema.New(schema.Col("a", value.KindInt), schema.Col("b", value.KindString))
	rows := []schema.Row{{value.Int(1), value.Str("x")}, {value.Int(2), value.Null()}}
	count := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
	body := schema.EncodeRows(rows)[1:]
	for _, mem := range []*MemRelation{lineitemish(40, true), mixedKinds(9), {Sch: mixedKinds(0).Sch}} {
		blob, _ := EncodeResult(&Result{Sch: mem.Sch, Rows: mem.Rows})
		f.Add(blob, uint8(7))
	}
	f.Add(replyOf(sch, append(count(1<<62), body...)), uint8(1))                   // forged count
	f.Add(replyOf(sch, append(count(uint64(len(body))), body...)), uint8(1))       // a count the length bound lets through
	f.Add(replyOf(sch, append(append(count(2), body...), "garbage"...)), uint8(2)) // trailing garbage
	f.Add(replyOf(sch, count(0)), uint8(3))                                        // zero rows
	f.Add(replyOf(schema.New(), append(count(3), 0, 0, 0, 0, 0, 0)), uint8(2))     // zero columns
	// One row lying across the first 64 KiB cut.
	var long []schema.Row
	for i := 0; i < 3; i++ {
		long = append(long, schema.Row{value.Int(int64(i)), value.Str(strings.Repeat("z", 40000))})
	}
	blob, _ := EncodeResult(&Result{Sch: sch, Rows: long})
	f.Add(blob, uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		ref, refErr := DecodeResult(data)
		enc, err := RetainResult(data)
		if err != nil {
			if refErr == nil {
				for _, r := range ref.Rows {
					if len(r) != ref.Sch.Len() {
						return // ragged: only the retained form checks widths
					}
				}
				t.Fatalf("RetainResult rejects (%v) what DecodeResult accepts", err)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("RetainResult accepts what DecodeResult rejects (%v)", refErr)
		}
		if enc.NumRows() != len(ref.Rows) {
			t.Fatalf("%d rows retained, %d decoded", enc.NumRows(), len(ref.Rows))
		}
		boxed, err := enc.Boxed()
		if err != nil || !sameRows(boxed.Rows, ref.Rows) {
			t.Fatalf("Boxed() = %v (%v), DecodeResult = %v", boxed.Rows, err, ref.Rows)
		}
		var viaBatches []schema.Row
		var every []int
		if err := enc.ScanBatch(int(batch), func(bt *Batch) error {
			for len(every) < bt.Len() {
				every = append(every, len(every))
			}
			viaBatches = bt.AppendRows(viaBatches, every[:bt.Len()], nil)
			return nil
		}); err != nil || !sameRows(viaBatches, ref.Rows) {
			t.Fatalf("ScanBatch(%d) = %v (%v), DecodeResult = %v", batch, viaBatches, err, ref.Rows)
		}
		again, err := EncodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeResult(again); err != nil || !sameRows(back.Rows, ref.Rows) {
			t.Fatalf("the retained reply re-encodes to %v (%v)", back, err)
		}
	})
}

// sameRows compares rows by value, NaN payloads by bits (reflect.DeepEqual
// holds NaN unequal to itself).
func sameRows(a, b []schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(schema.EncodeRow(nil, a[i]), schema.EncodeRow(nil, b[i])) {
			return false
		}
	}
	return true
}

// BenchmarkHostScanShipped times the host's scan of q21's l1 — lineitem as
// its fragment ships it, with the conjunct the host re-applies — over the
// same reply held as boxed rows (the parent's shipped relation) and retained
// encoded.
func BenchmarkHostScanShipped(b *testing.B) {
	full := lineitemish(60000, false)
	ship := &MemRelation{Sch: schema.New(full.Sch.Columns[4], full.Sch.Columns[0], full.Sch.Columns[5], full.Sch.Columns[8])}
	for _, r := range full.Rows {
		ship.Rows = append(ship.Rows, schema.Row{r[4], r[0], r[5], r[8]})
	}
	sel, err := parser.ParseSelect("SELECT l1.l_orderkey, l1.l_size FROM lineitem l1 WHERE l1.l_receiptdate > l1.l_commitdate")
	if err != nil {
		b.Fatal(err)
	}
	blob, _ := EncodeResult(&Result{Sch: ship.Sch, Rows: ship.Rows})
	for _, form := range []struct {
		name string
		rel  func() Relation
	}{
		{"boxed", func() Relation {
			res, err := DecodeResult(blob)
			if err != nil {
				b.Fatal(err)
			}
			return &MemRelation{Sch: res.Sch, Rows: res.Rows}
		}},
		{"encoded", func() Relation {
			res, err := RetainResult(blob)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			kept := 0
			for i := 0; i < b.N; i++ {
				// Receiving the reply is part of the path: decode or retain.
				res, err := RunBatched(sel, relCatalog{"lineitem": form.rel()}, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				kept = len(res.Rows)
			}
			b.ReportMetric(float64(kept), "rows-kept")
		})
	}
}

// TestReleaseTakesOnlyPooledReplies: Release empties a fragment's encoded
// reply, whose buffer came from the pool, once, and a retained reply, whose
// index is pooled; the boxed and columnar forms own their rows some other way,
// and Release leaves them as they are.
func TestReleaseTakesOnlyPooledReplies(t *testing.T) {
	mem := lineitemish(300, false)
	sel, _ := parser.ParseSelect("SELECT l_shipmode, l_orderkey FROM lineitem WHERE l_size > 25")
	frag, err := RunFragment(sel, memCatalog{"lineitem": mem}, nil, 64)
	if err != nil || !frag.pooled || frag.NumRows() == 0 {
		t.Fatalf("the fragment's reply is not in a pooled buffer: %d rows, %v", frag.NumRows(), err)
	}
	reply := retained(t, mem)
	for form, res := range map[string]*Result{"fragment": frag, "retained": reply} {
		res.Release()
		if res.pooled || res.enc != nil || res.all != nil || res.NumRows() != 0 {
			t.Errorf("a released %s reply still holds %d rows", form, res.NumRows())
		}
		res.Release() // a second release hands nothing back
	}

	for form, res := range map[string]*Result{"boxed": {Sch: mem.Sch, Rows: mem.Rows}, "columnar": columnar(t, mem)} {
		want, _ := EncodeResult(res)
		res.Release()
		if got, _ := EncodeResult(res); !bytes.Equal(got, want) {
			t.Errorf("Release changed a %s result", form)
		}
	}
}
