package ironsafe_test

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ironsafe"
	"ironsafe/internal/hostengine"
	"ironsafe/internal/ingest"
	"ironsafe/internal/monitor"
	"ironsafe/internal/policy"
	sqlexec "ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
)

// deepNestingChild is the argument that makes TestDeepNestingRefusedTyped run
// its checks instead of re-executing the test binary to run them.
const deepNestingChild = "deep-nesting-child"

// nested is text wrapped in n parentheses.
func nested(n int, text string) string {
	return strings.Repeat("(", n) + text + strings.Repeat(")", n)
}

// noNode is a storage node that is never reached: every entry point must
// refuse the statement while parsing it.
type noNode struct{}

func (noNode) NodeID() string { return "none" }
func (noNode) Offload(string) (*sqlexec.Result, int64, error) {
	return nil, 0, errors.New("offload reached")
}

// TestDeepNestingRefusedTyped sends a statement nested 4 Mi parentheses deep
// — 8 MiB, half a channel frame — to every entry point that parses client or
// host text: the monitor (too large to parse, and nested past the bound at a
// size it accepts), the host's split execution, the storage node's fragment
// execution, ingest and the policy parser. Each must refuse it with a typed
// error. An unbounded parser dies of a stack overflow, a fatal error no
// recover stops, so the checks run in a re-executed test binary: the
// overflow would kill that process, not this one.
func TestDeepNestingRefusedTyped(t *testing.T) {
	if len(flag.Args()) == 0 || flag.Args()[0] != deepNestingChild {
		if testing.Short() {
			t.Skip("parses megabytes of parentheses")
		}
		out, err := exec.Command(os.Args[0], "-test.run=^TestDeepNestingRefusedTyped$", "-test.v", deepNestingChild).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestDeepNestingRefusedTyped") {
			tail := string(out)
			if len(tail) > 4096 {
				tail = tail[:4096]
			}
			t.Fatalf("the checks' process failed (%v):\n%s", err, tail)
		}
		return
	}

	deep := "SELECT " + nested(4<<20, "1") + " FROM lineitem"
	shallowEnough := "SELECT " + nested(100_000, "1") + " FROM lineitem"
	if len(shallowEnough) > monitor.MaxRequestText {
		t.Fatalf("the nested statement for the monitor's parser is %d bytes, over its size bound", len(shallowEnough))
	}
	c, err := ironsafe.NewCluster(ironsafe.Config{Mode: ironsafe.IronSafe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE lineitem (l_orderkey INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy("read :- sessionKeyIs(Ka)\nwrite :- sessionKeyIs(Ka)"); err != nil {
		t.Fatal(err)
	}
	authorize := func(sql, execPolicy string) error {
		_, err := c.Monitor.Authorize(monitor.AuthRequest{Database: "db", ClientKey: "Ka", HostID: "host-1", SQL: sql, ExecPolicy: execPolicy})
		return err
	}
	pipe, err := c.IngestPipeline(ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"monitor, statement too large", authorize(deep, ""), monitor.ErrRequestTooLarge},
		{"monitor, execution policy too large", authorize("SELECT l_orderkey FROM lineitem", "exec :- "+nested(4<<20, "hostLocIs(EU)")), monitor.ErrRequestTooLarge},
		{"monitor, statement too deep", authorize(shallowEnough, ""), parser.ErrTooDeep},
		{"host", func() error { _, _, err := c.Host.ExecuteSplit(deep, []hostengine.StorageNode{noNode{}}); return err }(), parser.ErrTooDeep},
		{"storage", func() error { _, err := c.Storage[0].ExecFragment(deep); return err }(), parser.ErrTooDeep},
		{"ingest", func() error { _, err := pipe.Submit(ingest.Record{Client: "Ka", SQL: deep}); return err }(), parser.ErrTooDeep},
		{"policy", func() error { _, err := policy.Parse("read :- " + nested(4<<20, "sessionKeyIs(Ka)")); return err }(), policy.ErrTooDeep},
		{"policy, negation", func() error {
			_, err := policy.Parse("read :- " + strings.Repeat("!", 4<<20) + "sessionKeyIs(Ka)")
			return err
		}(), policy.ErrTooDeep},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, tc.err, tc.want)
		}
	}
}
