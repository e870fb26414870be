package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenJSON is the committed oracle: result digests per (data set, scale,
// seed where the data depends on it, op). It is regenerated only by
// -update-golden, which refuses to record a digest the secure configuration
// and the hons reference disagree on.
//
//go:embed golden/digests.json
var goldenJSON []byte

type goldenSet struct {
	digests map[string]string
	update  bool
}

func loadGolden(update bool) (*goldenSet, error) {
	g := &goldenSet{digests: map[string]string{}, update: update}
	if err := json.Unmarshal(goldenJSON, &g.digests); err != nil {
		return nil, fmt.Errorf("golden/digests.json: %w", err)
	}
	return g, nil
}

// goldenKey names the data an op's result is a function of. TPC-H data is
// generated from a fixed seed, so its digests are seed-independent; the PII
// rows and GDPR predicates come from the benchmark seed.
func goldenKey(w *workload, seed int64, sz sizing, op string) string {
	if w.piiRows > 0 {
		return fmt.Sprintf("pii/rows%d/seed%d/%s", w.piiRows, seed, op)
	}
	return fmt.Sprintf("tpch/sf%g/%s", sz.sf(w), op)
}

// check compares d with the committed digest for key. A key with no committed
// digest passes (the hons reference is then the only oracle) unless updating,
// which records it.
func (g *goldenSet) check(key, d string) string {
	if g.update {
		g.digests[key] = d
		return ""
	}
	if want, ok := g.digests[key]; ok && want != d {
		return fmt.Sprintf("golden mismatch %s: got %s want %s", key, d, want)
	}
	return ""
}

func (g *goldenSet) save(dir string) error {
	blob, err := json.MarshalIndent(g.digests, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "digests.json"), append(blob, '\n'), 0o644)
}
