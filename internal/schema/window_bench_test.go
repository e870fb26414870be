package schema

import (
	"fmt"
	"math/rand"
	"testing"

	"ironsafe/internal/value"
)

// lineitemPages encodes n rows shaped like TPC-H lineitem at SF 0.01 (16
// columns: four keys, four floats, two one-letter flags, three dates, two
// low-cardinality strings and a comment) into 4 KiB pages, about 36 rows each.
func lineitemPages(n int) (pages [][]byte, width int) {
	rng := rand.New(rand.NewSource(1))
	instructs := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	page := make([]byte, 0, 4096)
	for i := 0; i < n; i++ {
		ship := int64(8036 + rng.Intn(2500))
		row := Row{
			value.Int(int64(1 + i/4)), value.Int(int64(1 + rng.Intn(2000))), value.Int(int64(1 + rng.Intn(100))), value.Int(int64(1 + i%4)),
			value.Float(float64(1 + rng.Intn(50))), value.Float(float64(rng.Intn(10000000)) / 100), value.Float(float64(rng.Intn(11)) / 100), value.Float(float64(rng.Intn(9)) / 100),
			value.Str("NRA"[i%3 : i%3+1]), value.Str("OF"[i%2 : i%2+1]),
			value.Date(ship), value.Date(ship + int64(rng.Intn(60))), value.Date(ship + int64(rng.Intn(30))),
			value.Str(instructs[rng.Intn(len(instructs))]), value.Str(modes[rng.Intn(len(modes))]),
			value.Str(fmt.Sprintf("comment %d about the order", rng.Intn(1<<20))),
		}
		if len(page)+EncodedSize(row) > cap(page) {
			pages = append(pages, page)
			page = make([]byte, 0, 4096)
		}
		page = EncodeRow(page, row)
		width = len(row)
	}
	return append(pages, page), width
}

// BenchmarkRowWindow is the late-materializing scan's own number: one op is a
// scan of 60 000 lineitem-shaped rows in windows of 4 096 — the structural
// walk of every row alone, and the walk plus the decode of one column of each
// kind a predicate reads.
func BenchmarkRowWindow(b *testing.B) {
	const rows, batch = 60000, 4096
	pages, width := lineitemPages(rows)
	for _, bc := range []struct {
		name string
		col  int
	}{
		{"walk", -1},
		{"walk+int-col", 10},             // l_shipdate
		{"walk+float-col", 6},            // l_discount
		{"walk+dict-string-col", 14},     // l_shipmode
		{"walk+highcard-string-col", 15}, // l_comment
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := NewRowWindow(width)
			flush := func() {
				if bc.col >= 0 {
					w.Col(bc.col)
				}
				w.Reset()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, page := range pages {
					for pos := 0; pos < len(page); {
						next, err := w.AppendRow(page, pos)
						if err != nil {
							b.Fatal(err)
						}
						if pos = next; w.Len() == batch {
							flush()
						}
					}
				}
				flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
