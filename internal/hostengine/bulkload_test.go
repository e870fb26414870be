package hostengine

import (
	"strings"
	"testing"

	"ironsafe/internal/engine"
	"ironsafe/internal/pager"
	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/value"
)

// BenchmarkBulkLoad is one InsertRows of 20 000 rows (about 560 heap pages)
// into an empty table: one batch, over the secure store (its journal), the
// plain pager (staged, written page by page at commit) and the hos enclave
// store (the secure store's journal, charged to the enclave). B/op and
// allocs/op show what staging a page costs.
func BenchmarkBulkLoad(b *testing.B) {
	rows := make([]schema.Row, 20000)
	for i := range rows {
		rows[i] = schema.Row{value.Int(int64(i)), value.Str(strings.Repeat("x", 100))}
	}
	for _, kind := range []struct {
		name string
		open func(*simtime.Meter) pager.TxnStore
	}{
		{"secure", func(m *simtime.Meter) pager.TxnStore { return newHosStore(b, m) }},
		{"plain", func(m *simtime.Meter) pager.TxnStore { return pager.NewPager(pager.NewMemDevice(), m, 256) }},
		{"enclave", func(m *simtime.Meter) pager.TxnStore { return newEnclaveStore(b, m, 96<<20) }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var m simtime.Meter
				db, err := engine.Open(kind.open(&m), &m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Execute("CREATE TABLE bulk (id INTEGER, pad TEXT)"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := db.InsertRows("bulk", rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
