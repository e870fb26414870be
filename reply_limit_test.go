package ironsafe_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ironsafe"
	"ironsafe/internal/schema"
	"ironsafe/internal/transport"
	"ironsafe/internal/value"
)

// TestOversizedReplyFailsTyped: a fragment whose reply would not fit in one
// channel frame fails the query with transport.ErrFrameTooLarge, promptly —
// the storage node refuses the frame before writing it and answers with a
// typed reply — and the next query on the same cluster answers. The reply is
// large because its rows are wide: 5 500 rows of 3.5 KB, about 19 MB against
// the 16 MiB frame limit.
func TestOversizedReplyFailsTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 19 MB into the secure store")
	}
	c, err := ironsafe.NewCluster(ironsafe.Config{Mode: ironsafe.IronSafe, StorageNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE wide (id INTEGER, pad VARCHAR(3600))"); err != nil {
		t.Fatal(err)
	}
	const rows, width = 5500, 3500
	load := make([]schema.Row, rows)
	for i := range load {
		pad := fmt.Sprintf("%06d", i) + strings.Repeat("w", width-6)
		load[i] = schema.Row{value.Int(int64(i)), value.Str(pad)}
	}
	if err := c.AuthoritativeDB().InsertRows("wide", load); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy("read :- sessionKeyIs(Ka)"); err != nil {
		t.Fatal(err)
	}
	query := func(sql string) (*ironsafe.QueryResult, error) {
		t.Helper()
		type outcome struct {
			qr  *ironsafe.QueryResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			qr, err := c.NewSession("Ka").Query(sql)
			done <- outcome{qr, err}
		}()
		select {
		case o := <-done:
			return o.qr, o.err
		case <-time.After(30 * time.Second):
			t.Fatalf("%q did not return within 30 s", sql)
			return nil, nil
		}
	}
	if _, err := query("SELECT id, pad FROM wide"); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversized reply: err = %v, want transport.ErrFrameTooLarge", err)
	}
	qr, err := query("SELECT pad FROM wide WHERE id = 7")
	if err != nil {
		t.Fatalf("small query after the refusal: %v", err)
	}
	res, err := qr.Result.Boxed()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][0].String(), "000007") {
		t.Fatalf("small query after the refusal: %d rows", len(res.Rows))
	}
}
