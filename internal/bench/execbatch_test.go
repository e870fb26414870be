package bench

import (
	"os"
	"reflect"
	"testing"

	"ironsafe"
	"ironsafe/internal/bufpool"
	"ironsafe/internal/tpch"
)

// TestMain runs the package — the vectorized-vs-row differential below, the
// golden counters, the batched-vs-sequential scan check — under bufpool.Poison:
// the executor poisons every vector it recycles and every released buffer is
// scribbled, so a loop that keeps one past its batch returns wrong rows here
// instead of passing by luck.
func TestMain(m *testing.M) {
	bufpool.Poison = true
	os.Exit(m.Run())
}

// TestExecBatchMatchesRowModeTPCH is the acceptance gate for the vectorized
// executor: on the full evaluated TPC-H suite (plus q1) the default batched
// pipeline must return rows byte-identical to row-at-a-time execution, with
// identical data-work meters on both engines — the pipelines may differ only
// in the Batches amortization counter, where vectorized must be strictly
// cheaper overall, and in the host's tuple counters of the four queries whose
// subquery key sets reduce a scan (q2, q4, q18, q21): a reducer exists in
// vector mode only, and there the vectorized host must touch fewer tuples.
func TestExecBatchMatchesRowModeTPCH(t *testing.T) {
	data := tpch.Generate(testSF)
	vec, err := newCluster(ironsafe.IronSafe, data, nil) // default = vectorized
	if err != nil {
		t.Fatal(err)
	}
	row, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
		cfg.ExecBatchRows = 1
	})
	if err != nil {
		t.Fatal(err)
	}
	// A window of 7 rows ends inside every page, run and group: the batch
	// boundaries the default size almost never exercises.
	seven, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
		cfg.ExecBatchRows = 7
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := append([]int{1}, tpch.EvaluatedQueries...)
	var vecBatches, rowBatches int64
	for _, qn := range queries {
		qr7, err := seven.NewSession(benchClient).Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d batch=7: %v", qn, err)
		}
		qrV, err := vec.NewSession(benchClient).Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d vectorized: %v", qn, err)
		}
		qrR, err := row.NewSession(benchClient).Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d row-mode: %v", qn, err)
		}
		if len(qrV.Result.Rows) != len(qrR.Result.Rows) {
			t.Fatalf("q%d: vectorized %d rows, row-mode %d rows",
				qn, len(qrV.Result.Rows), len(qrR.Result.Rows))
		}
		if !reflect.DeepEqual(qr7.Result.Rows, qrR.Result.Rows) {
			t.Fatalf("q%d: batch=7 returns %d rows that differ from row mode's %d", qn, len(qr7.Result.Rows), len(qrR.Result.Rows))
		}
		for i := range qrV.Result.Rows {
			if !reflect.DeepEqual(qrV.Result.Rows[i], qrR.Result.Rows[i]) {
				t.Fatalf("q%d row %d diverges:\n  vectorized: %v\n  row-mode:   %v",
					qn, i, qrV.Result.Rows[i], qrR.Result.Rows[i])
			}
		}

		// Meter equality modulo amortization: zero the Batches counters and
		// every remaining counter — tuples touched, pages read, hashes
		// verified, bytes shipped — must match exactly.
		hv, hr := qrV.Stats.Host, qrR.Stats.Host
		sv, sr := qrV.Stats.Storage, qrR.Stats.Storage
		vecBatches += hv.Batches + sv.Batches
		rowBatches += hr.Batches + sr.Batches
		if hv.Batches > hr.Batches || sv.Batches > sr.Batches {
			t.Errorf("q%d: vectorized dispatched MORE batches (host %d vs %d, storage %d vs %d)",
				qn, hv.Batches, hr.Batches, sv.Batches, sr.Batches)
		}
		hv.Batches, hr.Batches = 0, 0
		sv.Batches, sr.Batches = 0, 0
		if qn == 2 || qn == 4 || qn == 18 || qn == 21 {
			if hv.TuplesProcessed >= hr.TuplesProcessed || hv.TupleWork >= hr.TupleWork {
				t.Errorf("q%d: reduced scans should save the vectorized host tuples: %d processed, %d work; row mode %d, %d",
					qn, hv.TuplesProcessed, hv.TupleWork, hr.TuplesProcessed, hr.TupleWork)
			}
			hv.TuplesProcessed, hv.TupleWork = hr.TuplesProcessed, hr.TupleWork
		}
		if hv != hr {
			t.Errorf("q%d: host meters diverge:\n  vectorized: %+v\n  row-mode:   %+v", qn, hv, hr)
		}
		if sv != sr {
			t.Errorf("q%d: storage meters diverge:\n  vectorized: %+v\n  row-mode:   %+v", qn, sv, sr)
		}
	}
	if vecBatches >= rowBatches {
		t.Errorf("vectorized batches = %d, want < row-mode %d (amortization is the point)",
			vecBatches, rowBatches)
	}
}
