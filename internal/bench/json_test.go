package bench

import (
	"encoding/json"
	"reflect"
	"testing"

	"ironsafe"
	"ironsafe/internal/tpch"
)

// TestBatchedMatchesSequentialTPCH is the acceptance gate for the pipelined
// scan path: on the full evaluated TPC-H suite (plus q1) the batched scs
// configuration must return rows identical to the paper's sequential
// per-page path, while evaluating strictly fewer Merkle HMACs on the
// multi-page scans.
func TestBatchedMatchesSequentialTPCH(t *testing.T) {
	data := tpch.Generate(testSF)
	batched, err := newCluster(ironsafe.IronSafe, data, nil) // default = batched
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
		cfg.ScanBatchPages = 1
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := append([]int{1}, tpch.EvaluatedQueries...)
	var fewerHashes int
	for _, qn := range queries {
		qrB, err := batched.NewSession(benchClient).Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d batched: %v", qn, err)
		}
		qrS, err := sequential.NewSession(benchClient).Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d sequential: %v", qn, err)
		}
		if len(qrB.Result.Rows) != len(qrS.Result.Rows) {
			t.Fatalf("q%d: batched %d rows, sequential %d rows",
				qn, len(qrB.Result.Rows), len(qrS.Result.Rows))
		}
		for i := range qrB.Result.Rows {
			if !reflect.DeepEqual(qrB.Result.Rows[i], qrS.Result.Rows[i]) {
				t.Fatalf("q%d row %d diverges:\n  batched:    %v\n  sequential: %v",
					qn, i, qrB.Result.Rows[i], qrS.Result.Rows[i])
			}
		}
		b, s := qrB.Stats.Storage, qrS.Stats.Storage
		if b.MerkleHashes > s.MerkleHashes {
			t.Errorf("q%d: batched evaluated MORE hashes (%d) than sequential (%d)",
				qn, b.MerkleHashes, s.MerkleHashes)
		}
		if b.MerkleHashes < s.MerkleHashes {
			fewerHashes++
			if b.MerkleHashesSaved == 0 {
				t.Errorf("q%d: hashes dropped %d -> %d but MerkleHashesSaved = 0",
					qn, s.MerkleHashes, b.MerkleHashes)
			}
		}
	}
	if fewerHashes == 0 {
		t.Error("no query saved Merkle hashes under batching")
	}
}

// TestCollectResults exercises the BENCH_results.json emitter end to end:
// all five configurations present, per-query times positive, breakdown
// fractions summing to one, and the record round-tripping through JSON.
func TestCollectResults(t *testing.T) {
	queries := []int{1, 6}
	res, err := CollectResults(testSF, queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []string{"hons", "hos", "vcs", "scs", "sos"} {
		times, ok := res.TimesMicros[cfg]
		if !ok {
			t.Fatalf("config %s missing from results", cfg)
		}
		for _, qn := range queries {
			us, ok := times[keyFor(qn)]
			if !ok || us <= 0 {
				t.Errorf("%s %s: time %v (present=%v)", cfg, keyFor(qn), us, ok)
			}
		}
		if res.GeomeanMicros[cfg] <= 0 {
			t.Errorf("%s: geomean %v", cfg, res.GeomeanMicros[cfg])
		}
	}
	for _, qn := range queries {
		b, ok := res.ScsBreakdown[keyFor(qn)]
		if !ok {
			t.Fatalf("scs breakdown missing for %s", keyFor(qn))
		}
		sum := b.NDP + b.Freshness + b.Decrypt + b.Other
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: breakdown sums to %f", keyFor(qn), sum)
		}
		sc, ok := res.ScsScan[keyFor(qn)]
		if !ok {
			t.Fatalf("scs scan counters missing for %s", keyFor(qn))
		}
		if sc.ScanBatches <= 0 {
			t.Errorf("%s: ScanBatches = %d, want > 0 (batching is the default)", keyFor(qn), sc.ScanBatches)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.TimesMicros, back.TimesMicros) {
		t.Error("results do not round-trip through JSON")
	}
}

func keyFor(qn int) string {
	return jsonQueryKey(qn)
}
