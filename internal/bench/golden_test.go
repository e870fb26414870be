package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ironsafe"
	"ironsafe/internal/simtime"
	"ironsafe/internal/tpch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_snapshots_scs.json from this build's counters")

// goldenCounters is one query's work on both sides of the split.
type goldenCounters struct {
	Host, Storage simtime.Snapshot
}

// TestGoldenSnapshots holds every evaluated query's work counters in scs to
// a committed record: the simulated clock is priced from these counters, so
// an operator that drops, doubles or moves a charge fails here, query by
// query, and not only in the benchmark's simulated metrics. The record was
// taken on the commit before the late-materializing scan and has moved once
// since, in the link bytes of q4 and q21 when EXISTS bodies stopped shipping
// columns nobody reads; regenerate it with -update-golden only for a change
// that means to move the counters.
func TestGoldenSnapshots(t *testing.T) {
	const path = "testdata/golden_snapshots_scs.json"
	c, err := newCluster(ironsafe.IronSafe, tpch.Generate(testSF), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]goldenCounters{}
	for _, qn := range tpch.EvaluatedQueries {
		qr, err := c.NewSession(benchClient).Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		got[fmt.Sprintf("q%d", qn)] = goldenCounters{Host: qr.Stats.Host, Storage: qr.Stats.Storage}
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCounters
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("record holds %d queries, the suite has %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: counters moved:\n  got:  %+v\n  want: %+v", name, g, w)
		}
	}
}
