package exec

import (
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"ironsafe/internal/bufpool"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
)

// TestMain runs the package's tests — the fused scan, semi-join reduction,
// reply codec, join and group-by differentials — with every recycled vector
// poisoned and every released buffer scribbled (bufpool.Poison), so that a
// caller that keeps one past nextBatch fails them. Benchmarks measure the
// executor as it ships.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f == nil || f.Value.String() == "" {
		bufpool.Poison = true
	}
	os.Exit(m.Run())
}

// scanPredicates are the pushed q6, q12 and q19 lineitem predicates.
var scanPredicates = map[string]string{
	"q6":  pushedShapes[2],
	"q12": "l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate AND l_receiptdate >= date '1994-01-01' AND l_receiptdate < date '1994-01-01' + interval '1' year",
	"q19": "l_quantity >= 1 AND l_quantity <= 11 AND l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON' OR l_quantity >= 10 AND l_quantity <= 20 AND l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON' OR l_quantity >= 20 AND l_quantity <= 30 AND l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON'",
}

func mustWhere(t testing.TB, pred string) ast.Expr {
	t.Helper()
	sel, err := parser.ParseSelect("SELECT l_orderkey FROM lineitem WHERE " + pred)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Where
}

// windowsOf cuts rel into batches of size rows with every column decoded, as
// a scan's windows reach the predicate.
func windowsOf(rel *MemRelation, size int) []*Batch {
	var out []*Batch
	for off := 0; off < len(rel.Rows); off += size {
		bt := NewBatch(rel.Sch, rel.Rows[off:min(off+size, len(rel.Rows))])
		for c := range rel.Sch.Columns {
			bt.Col(c)
		}
		out = append(out, bt)
	}
	return out
}

// TestLaterWindowsAllocateNoVector: the fused scan's loop — nextBatch, the
// predicate's survivors — allocates its selection lists for the first window
// and none after it, and a predicate over typed columns, kernels all the way
// down, takes no result vector at all: a filter is selections, not 0/1
// arrays.
func TestLaterWindowsAllocateNoVector(t *testing.T) {
	const window = DefaultBatchRows
	wins := windowsOf(lineitemish(4*window, false), window)
	for _, name := range []string{"q6", "q19"} {
		pred := mustWhere(t, scanPredicates[name])
		b := &builder{batchRows: window}
		ctx := newCtx(b, wins[0].Sch, nil)
		kept := 0
		eval := func(bt *Batch) {
			ctx.nextBatch()
			keep, err := ctx.where(pred, bt, identity(bt.Len()))
			if err != nil {
				t.Fatal(err)
			}
			kept += len(keep)
		}
		held := func() (ints, floats, sels int) {
			return schema.Int64s.Held(ctx.vs), schema.Float64s.Held(ctx.vs), positions.Held(ctx.vs)
		}
		eval(wins[0])
		if ints, floats, _ := held(); ints != 0 || floats != 0 {
			t.Errorf("%s: the filter took %d int64 and %d float64 result arrays, want none", name, ints, floats)
		}
		ints, floats, sels := held()
		arrays := ints + floats + sels
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, bt := range wins[1:] {
			eval(bt)
		}
		runtime.ReadMemStats(&after)
		if kept == 0 {
			t.Fatalf("%s keeps no row of the fixture", name)
		}
		if ints, floats, sels := held(); ints+floats+sels != arrays {
			t.Errorf("%s: %d scratch arrays after the first window, %d after the last", name, arrays, ints+floats+sels)
		}
		// What is left per window is vector headers and boxed constants, a
		// few KiB; one result vector alone is 8 bytes a row.
		if perWindow := (after.TotalAlloc - before.TotalAlloc) / uint64(len(wins)-1); perWindow >= 8*window/4 {
			t.Errorf("%s: windows 2..%d allocate %d bytes each, want less than a quarter of one result vector (%d)", name, len(wins), perWindow, 8*window/4)
		}
	}
}

// recycledWindows delivers a relation's rows the way a stored table does: every
// batch is the one RowWindow, refilled, whose column vectors the next batch
// overwrites.
type recycledWindows struct {
	*MemRelation
	fills int
}

func (r *recycledWindows) ScanBatch(batchRows int, fn func(*Batch) error) error {
	var enc []byte
	for _, row := range r.Rows {
		enc = schema.EncodeRow(enc, row)
	}
	win := schema.NewRowWindow(r.Sch.Len())
	for pos, left := 0, len(r.Rows); left > 0; left -= win.Len() {
		var err error
		if pos, err = win.Fill(enc, pos, min(batchRows, left)); err != nil {
			return err
		}
		r.fills++
		if err := fn(NewWindowBatch(r.Sch, win)); err != nil {
			return err
		}
	}
	return nil
}

// TestVectorLifetime pins the scratch's rule from both sides: what a loop
// copied out of window k is untouched by evaluating window k+1 on the same
// context and equals a fresh context's answer, while a list held past
// nextBatch is recycled under its holder — and, under the test hook, visibly
// so. Arrays are handed out zeroed whatever the last batch (or the hook) left.
// The rule reaches the result: what a scan keeps of a window it copies, so no
// column of a Result is a vector of a window the relation recycles (the scan
// poisons those as it leaves them), while a reply's columns, which are the
// reply's own, are shared, not copied, by a scan that keeps every row.
func TestVectorLifetime(t *testing.T) {
	if !bufpool.Poison {
		t.Skip("the hook is off (benchmark run)")
	}
	wins := windowsOf(lineitemish(3*64, false), 64)
	pred := mustWhere(t, scanPredicates["q19"])
	survivors := func(ctx *evalCtx, bt *Batch) []int {
		keep, err := ctx.where(pred, bt, identity(bt.Len()))
		if err != nil {
			t.Fatal(err)
		}
		return keep
	}
	b := &builder{batchRows: 64}
	ctx := newCtx(b, wins[0].Sch, nil)
	for k := 0; k+1 < len(wins); k++ {
		ctx.nextBatch()
		held := survivors(ctx, wins[k])
		if len(held) == 0 {
			t.Fatalf("window %d keeps no row", k)
		}
		copied := append([]int(nil), held...)
		rows := wins[k].AppendRows(nil, held, nil)

		ctx.nextBatch()
		survivors(ctx, wins[k+1])

		want := survivors(newCtx(b, wins[k].Sch, nil), wins[k])
		if !reflect.DeepEqual(copied, want) {
			t.Fatalf("window %d: survivors %v, a fresh context keeps %v", k, copied, want)
		}
		if !reflect.DeepEqual(rows, wins[k].AppendRows(nil, want, nil)) {
			t.Fatalf("window %d: its boxed rows changed when window %d was evaluated", k, k+1)
		}
		if reflect.DeepEqual(held, copied) {
			t.Fatalf("window %d: a list held past nextBatch survived window %d unrecycled", k, k+1)
		}
	}
	for _, nulls := range []bool{false, true} {
		mem := lineitemish(3*64+5, nulls)
		sel := mustParse(t, "SELECT * FROM lineitem WHERE l_orderkey <> 100 AND l_quantity < (SELECT 100)")
		recycled := &recycledWindows{MemRelation: mem}
		reply := retained(t, mem)
		var scans []*Result
		for _, rel := range []Relation{recycled, reply} {
			b := &builder{cat: relCatalog{"lineitem": rel}, batchRows: 64, stmt: sel}
			scan, _, err := b.buildFrom(sel, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			scans = append(scans, scan.parts[0])
		}
		want := mustRun(t, "SELECT * FROM lineitem WHERE l_orderkey <> 100", memCatalog{"lineitem": mem}, nil, 1)
		for i, name := range []string{"recycled windows", "a retained reply"} {
			if got, err := scans[i].Boxed(); err != nil || scans[i].cols == nil || !sameRows(got.Rows, want.Rows) {
				t.Fatalf("nulls=%v: the scan over %s kept %d rows (%v), want the %d that pass; a poisoned value is a vector held past its window", nulls, name, scans[i].NumRows(), err, len(want.Rows))
			}
		}
		if recycled.fills != 4 {
			t.Fatalf("the relation refilled its window %d times, want 4", recycled.fills)
		}
		all := &builder{cat: relCatalog{"lineitem": reply}, batchRows: 64, stmt: mustParse(t, "SELECT * FROM lineitem")}
		scan, _, err := all.buildFrom(all.stmt, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c, cv := range scan.parts[0].cols {
			if cv != reply.col(c) {
				t.Errorf("nulls=%v: a scan that kept every row of a reply copied column %d", nulls, c)
			}
		}
	}
	ctx.nextBatch()
	for i, x := range ctx.ints(64) {
		if x != 0 {
			t.Fatalf("ints()[%d] = %#x after a poisoned recycle, want 0", i, x)
		}
	}
	for i, x := range ctx.floats(64) {
		if x != 0 || math.IsNaN(x) {
			t.Fatalf("floats()[%d] = %v after a poisoned recycle, want 0", i, x)
		}
	}
}
