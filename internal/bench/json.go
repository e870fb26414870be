package bench

import (
	"fmt"
	"math"
	"time"

	"ironsafe"
	"ironsafe/internal/tpch"
)

// Results is the machine-readable benchmark record cmd/ironsafe-bench writes
// to BENCH_results.json: per-query simulated latencies for every Table 2
// configuration, the scs cost-breakdown fractions of Figure 8, and the scan
// pipeline's amortization counters — enough to track the perf trajectory of
// the secure scan path across PRs without re-parsing text tables.
type Results struct {
	ScaleFactor float64 `json:"scale_factor"`
	Queries     []int   `json:"queries"`
	// TimesMicros maps config abbreviation (hons/hos/vcs/scs/sos) to
	// per-query simulated latency in microseconds, keyed "q<N>".
	TimesMicros map[string]map[string]float64 `json:"times_micros"`
	// GeomeanMicros is the geometric mean latency per configuration.
	GeomeanMicros map[string]float64 `json:"geomean_micros"`
	// ScsBreakdown holds the Figure 8 cost fractions per query under scs.
	ScsBreakdown map[string]Breakdown `json:"scs_breakdown"`
	// ScsScan holds the scan-pipeline counters per query under scs
	// (storage-side, per-query deltas).
	ScsScan map[string]ScanCounters `json:"scs_scan"`
}

// Breakdown is one query's Figure 8 cost split (fractions sum to 1).
type Breakdown struct {
	NDP       float64 `json:"ndp"`
	Freshness float64 `json:"freshness"`
	Decrypt   float64 `json:"decrypt"`
	Other     float64 `json:"other"`
}

// ScanCounters is one query's scan-pipeline work record.
type ScanCounters struct {
	ScanBatches       int64 `json:"scan_batches"`
	MerkleHashes      int64 `json:"merkle_hashes"`
	MerkleHashesSaved int64 `json:"merkle_hashes_saved"`
}

// jsonQueryKey names a query in the JSON maps.
func jsonQueryKey(qn int) string { return fmt.Sprintf("q%d", qn) }

// jsonModes lists the five Table 2 configurations in evaluation order.
var jsonModes = []ironsafe.Mode{
	ironsafe.HostOnlyNonSecure,
	ironsafe.HostOnlySecure,
	ironsafe.VanillaCS,
	ironsafe.IronSafe,
	ironsafe.StorageOnlySecure,
}

// CollectResults runs every query on all five configurations and assembles
// the machine-readable record. The hos cluster uses the same scaled-down EPC
// as the Fig 6 reproduction so its numbers stay comparable across figures.
func CollectResults(sf float64, queries []int) (*Results, error) {
	data := tpch.Generate(sf)
	res := &Results{
		ScaleFactor:   sf,
		Queries:       append([]int(nil), queries...),
		TimesMicros:   map[string]map[string]float64{},
		GeomeanMicros: map[string]float64{},
		ScsBreakdown:  map[string]Breakdown{},
		ScsScan:       map[string]ScanCounters{},
	}
	for _, m := range jsonModes {
		mode := m
		c, err := newCluster(mode, data, func(cfg *ironsafe.Config) {
			if mode == ironsafe.HostOnlySecure {
				cfg.EPCLimitBytes = 4 << 20
			}
		})
		if err != nil {
			return nil, fmt.Errorf("results %s: %w", mode, err)
		}
		model := c.CostModel()
		times := map[string]float64{}
		logSum, n := 0.0, 0
		for _, qn := range queries {
			t, stats, err := runQuery(c, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("results %s q%d: %w", mode, qn, err)
			}
			key := jsonQueryKey(qn)
			us := float64(t) / float64(time.Microsecond)
			times[key] = us
			if us > 0 {
				logSum += math.Log(us)
				n++
			}
			if mode == ironsafe.IronSafe {
				f := breakdownFractions(qn, model, stats)
				res.ScsBreakdown[key] = Breakdown{
					NDP: f.NDP, Freshness: f.Freshness, Decrypt: f.Decrypt, Other: f.Other,
				}
				res.ScsScan[key] = ScanCounters{
					ScanBatches:       stats.Storage.ScanBatches,
					MerkleHashes:      stats.Storage.MerkleHashes,
					MerkleHashesSaved: stats.Storage.MerkleHashesSaved,
				}
			}
		}
		res.TimesMicros[mode.String()] = times
		if n > 0 {
			res.GeomeanMicros[mode.String()] = math.Exp(logSum / float64(n))
		}
	}
	return res, nil
}
