package pager

import (
	"fmt"
	"reflect"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/value"
)

// recordingDevice records the order of block reads: the sequence every
// deterministic fault and adversary stream is keyed on.
type recordingDevice struct {
	BlockDevice
	reads []uint32
}

func (d *recordingDevice) ReadBlock(idx uint32) ([]byte, error) {
	d.reads = append(d.reads, idx)
	return d.BlockDevice.ReadBlock(idx)
}

// fixedRow has the same encoded size for every i below a million, so every
// full page holds the same number of rows.
func fixedRow(i int) schema.Row {
	return schema.Row{
		value.Int(int64(1_000_000 + i)),
		value.Str(fmt.Sprintf("customer-%06d-with-some-padding", i)),
		value.Float(float64(i) * 1.5),
	}
}

// scanRun is what one scan of a heap observably did.
type scanRun struct {
	rows  []schema.Row
	reads []uint32
	meter simtime.Snapshot
}

// runScan opens the heap's pages on a fresh uncached pager over dev and
// scans them through drive.
func runScan(t *testing.T, dev BlockDevice, pages []uint32, cfg ScanConfig, drive func(*HeapFile, *[]schema.Row) error) scanRun {
	t.Helper()
	rec := &recordingDevice{BlockDevice: dev}
	var m simtime.Meter
	h := OpenHeapFile(NewPager(rec, &m, 0), pages)
	h.SetScanConfig(cfg)
	var rows []schema.Row
	if err := drive(h, &rows); err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	return scanRun{rows: rows, reads: rec.reads, meter: m.Snapshot()}
}

// TestScanWindowsMatchesScan sweeps window sizes around the rows-per-page
// boundary across the three scan pipelines: the rows, the device-read
// sequence and the meters must be those of the row-at-a-time Scan, and every
// window but the last must be full.
func TestScanWindowsMatchesScan(t *testing.T) {
	dev := NewMemDevice()
	h := NewHeapFile(NewPager(dev, nil, 0))
	rows := make([]schema.Row, 700)
	for i := range rows {
		rows[i] = fixedRow(i)
	}
	if err := h.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	pages := h.Pages()
	first, err := dev.ReadBlock(pages[0])
	if err != nil {
		t.Fatal(err)
	}
	perPage, _ := pageHeader(first)
	if len(pages) < 8 || perPage < 3 {
		t.Fatalf("fixture too small: %d pages of %d rows", len(pages), perPage)
	}

	configs := []ScanConfig{
		{},                            // sequential
		{BatchPages: 3},               // batched, ragged tail
		{BatchPages: 3, Prefetch: 2},  // batched + read-ahead
		{BatchPages: 64, Prefetch: 1}, // one batch covers the heap
	}
	for _, cfg := range configs {
		want := runScan(t, dev, pages, cfg, func(h *HeapFile, out *[]schema.Row) error {
			return h.Scan(func(r schema.Row) error {
				*out = append(*out, r)
				return nil
			})
		})
		if !reflect.DeepEqual(want.rows, rows) {
			t.Fatalf("%+v: Scan does not return the loaded rows", cfg)
		}
		for _, size := range []int{1, 2, perPage - 1, perPage, perPage + 1, 4096} {
			var lens []int
			got := runScan(t, dev, pages, cfg, func(h *HeapFile, out *[]schema.Row) error {
				return h.ScanWindows(size, 3, func(w *schema.RowWindow) error {
					lens = append(lens, w.Len())
					sel := make([]int, w.Len())
					for i := range sel {
						sel[i] = i
					}
					*out = w.AppendRows(*out, 0, sel, nil)
					return nil
				})
			})
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Errorf("%+v window=%d: rows diverge from Scan", cfg, size)
			}
			if !reflect.DeepEqual(got.reads, want.reads) {
				t.Errorf("%+v window=%d: device reads %v, Scan made %v", cfg, size, got.reads, want.reads)
			}
			if got.meter != want.meter {
				t.Errorf("%+v window=%d: meters %+v, Scan charged %+v", cfg, size, got.meter, want.meter)
			}
			for i, n := range lens {
				if last := i == len(lens)-1; (!last && n != size) || n > size || n == 0 {
					t.Errorf("%+v window=%d: window lengths %v", cfg, size, lens)
					break
				}
			}
		}
	}

	if err := h.ScanWindows(0, 3, func(*schema.RowWindow) error { return nil }); err == nil {
		t.Error("a zero-row window size was accepted")
	}
}

// TestScanWindowsEarlyStopAndErrors pins ErrStopScan and consumer errors
// through the window scan.
func TestScanWindowsEarlyStopAndErrors(t *testing.T) {
	h, want := buildScanHeap(t, 600)
	h.SetScanConfig(ScanConfig{BatchPages: 3, Prefetch: 2})
	seen := 0
	err := h.ScanWindows(7, 3, func(w *schema.RowWindow) error {
		seen += w.Len()
		if seen >= len(want)/2 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || seen >= len(want) {
		t.Fatalf("early stop: err %v after %d of %d rows", err, seen, len(want))
	}
	boom := fmt.Errorf("consumer failure")
	if err := h.ScanWindows(7, 3, func(*schema.RowWindow) error { return boom }); err != boom {
		t.Fatalf("consumer error came back as %v", err)
	}
}

// TestMalformedPlaintextPages feeds authentic-but-malformed page plaintext to
// both scans: the window scan must fail closed with the error the row scan
// reports, whichever columns its consumer would have read.
func TestMalformedPlaintextPages(t *testing.T) {
	good := func() []byte {
		buf := make([]byte, heapHeaderSize, PageSize)
		for i := 0; i < 3; i++ {
			buf = schema.EncodeRow(buf, fixedRow(i))
		}
		used := len(buf) - heapHeaderSize
		buf = buf[:PageSize]
		setPageHeader(buf, 3, used)
		return buf
	}
	rowLen := schema.EncodedSize(fixedRow(0))
	cases := []struct {
		name   string
		break_ func(buf []byte)
		want   string
	}{
		{"truncated row", func(buf []byte) { setPageHeader(buf, 3, 3*rowLen-5) },
			"pager: heap page 0 row 2: schema: truncated float at column 2"},
		{"row count overruns used", func(buf []byte) { setPageHeader(buf, 4, 3*rowLen) },
			"pager: heap page 0 truncated at row 3"},
		{"unknown kind in a column nobody reads", func(buf []byte) {
			// Column 1 of row 1: its kind byte follows the row header and
			// column 0, which together are a one-column row's encoding.
			buf[heapHeaderSize+rowLen+schema.EncodedSize(fixedRow(1)[:1])] = 77
		}, "pager: heap page 0 row 1: schema: unknown kind 77 at column 1"},
		{"used bytes overrun the page", func(buf []byte) { setPageHeader(buf, 3, PageSize) },
			fmt.Sprintf("pager: heap page 0 claims %d used bytes", PageSize)},
	}
	for _, tc := range cases {
		dev := NewMemDevice()
		buf := good()
		tc.break_(buf)
		if err := dev.WriteBlock(0, buf); err != nil {
			t.Fatal(err)
		}
		h := OpenHeapFile(NewPager(dev, nil, 0), []uint32{0})
		rowErr := h.Scan(func(schema.Row) error { return nil })
		winErr := h.ScanWindows(2, 3, func(w *schema.RowWindow) error {
			w.Col(0) // the consumer only ever touches column 0
			return nil
		})
		for which, err := range map[string]error{"Scan": rowErr, "ScanWindows": winErr} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: %s error %v, want %q", tc.name, which, err, tc.want)
			}
		}
	}
}
