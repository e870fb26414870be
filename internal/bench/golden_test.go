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
// taken on the commit before the late-materializing scan and has moved twice
// since, both times in link bytes only: in q4 and q21 when EXISTS bodies
// stopped shipping columns nobody reads, and in every query when every
// offload began to cross the secure channel, so both sides count the frames
// that crossed it instead of each message's length plus 64 (at most 145 B per
// query per direction). Regenerate it with -update-golden only for a change
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
	// Every counted page is earned, so a regenerated record cannot take in a
	// charge no work backs: a read-only scs query reads each page it decrypts
	// and verifies on storage, writes none, and the host touches no page.
	for name, g := range got {
		s, h := g.Storage, g.Host
		if s.PagesRead != s.PagesDecrypted || s.PagesRead != s.MerkleVerifies {
			t.Errorf("%s: storage read %d pages, decrypted %d, verified %d", name, s.PagesRead, s.PagesDecrypted, s.MerkleVerifies)
		}
		if s.PagesWritten != 0 || s.PagesEncrypted != 0 {
			t.Errorf("%s: a read-only query wrote %d pages and encrypted %d on storage", name, s.PagesWritten, s.PagesEncrypted)
		}
		if h.PagesRead|h.PagesWritten|h.ScanBatches|h.PagesDecrypted|h.PagesEncrypted|h.MerkleVerifies|h.MerkleHashes|h.MerkleHashesSaved != 0 {
			t.Errorf("%s: the scs host touched pages: %+v", name, h)
		}
	}
	if t.Failed() {
		t.FailNow() // and leave the record as it is
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
