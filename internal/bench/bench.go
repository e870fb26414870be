// Package bench is the experiment harness: one function per table/figure of
// the paper's evaluation (§6), each returning the same rows/series the paper
// reports. Latencies are simulated times produced by pricing real measured
// work (pages, tuples, bytes, crypto and TEE operations) with the calibrated
// cost model — see DESIGN.md for why absolute values differ from the paper
// while the shapes are expected to hold.
package bench

import (
	"fmt"
	"time"

	"ironsafe"
	"ironsafe/internal/partition"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tpch"
)

// benchClient is the identity used for all benchmark queries.
const benchClient = "bench"

// accessPolicy grants the benchmark client read+write.
const accessPolicy = "read :- sessionKeyIs(bench)\nwrite :- sessionKeyIs(bench)"

// newCluster builds and loads one configuration.
func newCluster(mode ironsafe.Mode, data *tpch.Data, tweak func(*ironsafe.Config)) (*ironsafe.Cluster, error) {
	cfg := ironsafe.Config{Mode: mode}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := ironsafe.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.LoadTPCHData(data); err != nil {
		return nil, err
	}
	if err := c.SetAccessPolicy(accessPolicy); err != nil {
		return nil, err
	}
	return c, nil
}

// runQuery executes one query and returns its simulated latency and stats.
func runQuery(c *ironsafe.Cluster, sql string) (time.Duration, *ironsafe.QueryStats, error) {
	qr, err := c.NewSession(benchClient).Query(sql)
	if err != nil {
		return 0, nil, err
	}
	return qr.Stats.Cost.Total(), &qr.Stats, nil
}

// Fig6Row is one bar pair of Figure 6.
type Fig6Row struct {
	Query             int
	HonsTime, VcsTime time.Duration
	HosTime, ScsTime  time.Duration
	// NonSecureSpeedup = hons/vcs; SecureSpeedup = hos/scs. > 1 means the
	// computational-storage split wins.
	NonSecureSpeedup float64
	SecureSpeedup    float64
}

// Fig6 reproduces Figure 6: TPC-H speedup of split execution over host-only,
// non-secure (hons vs vcs) and secure (hos vs scs).
func Fig6(sf float64, queries []int) ([]Fig6Row, error) {
	data := tpch.Generate(sf)
	modes := []ironsafe.Mode{ironsafe.HostOnlyNonSecure, ironsafe.VanillaCS, ironsafe.HostOnlySecure, ironsafe.IronSafe}
	clusters := map[ironsafe.Mode]*ironsafe.Cluster{}
	for _, m := range modes {
		c, err := newCluster(m, data, func(cfg *ironsafe.Config) {
			if m == ironsafe.HostOnlySecure {
				// Scaled-down EPC so the secure host-only working set
				// exceeds it the way SF 3-5 exceeds 96 MiB on hardware.
				cfg.EPCLimitBytes = 4 << 20
			}
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", m, err)
		}
		clusters[m] = c
	}
	var rows []Fig6Row
	for _, qn := range queries {
		row := Fig6Row{Query: qn}
		times := map[ironsafe.Mode]time.Duration{}
		for _, m := range modes {
			t, _, err := runQuery(clusters[m], tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("fig6 q%d %s: %w", qn, m, err)
			}
			times[m] = t
		}
		row.HonsTime = times[ironsafe.HostOnlyNonSecure]
		row.VcsTime = times[ironsafe.VanillaCS]
		row.HosTime = times[ironsafe.HostOnlySecure]
		row.ScsTime = times[ironsafe.IronSafe]
		row.NonSecureSpeedup = ratio(row.HonsTime, row.VcsTime)
		row.SecureSpeedup = ratio(row.HosTime, row.ScsTime)
		rows = append(rows, row)
	}
	return rows, nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// AverageSecureSpeedup computes the paper's headline number (2.3x average).
func AverageSecureSpeedup(rows []Fig6Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.SecureSpeedup
	}
	return sum / float64(len(rows))
}

// Fig7Row is one bar of Figure 7: host<->storage IO reduction.
type Fig7Row struct {
	Query int
	// HostOnlyPages is the page traffic of host-only execution; ShippedPages
	// is the page-equivalent of the rows the split shipped.
	HostOnlyPages int64
	ShippedPages  int64
	Reduction     float64 // HostOnlyPages / ShippedPages
}

// Fig7 reproduces Figure 7: data-movement reduction from near-data filtering.
func Fig7(sf float64, queries []int) ([]Fig7Row, error) {
	data := tpch.Generate(sf)
	hons, err := newCluster(ironsafe.HostOnlyNonSecure, data, nil)
	if err != nil {
		return nil, err
	}
	scs, err := newCluster(ironsafe.IronSafe, data, nil)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, qn := range queries {
		_, honsStats, err := runQuery(hons, tpch.Queries[qn])
		if err != nil {
			return nil, fmt.Errorf("fig7 q%d hons: %w", qn, err)
		}
		_, scsStats, err := runQuery(scs, tpch.Queries[qn])
		if err != nil {
			return nil, fmt.Errorf("fig7 q%d scs: %w", qn, err)
		}
		hostPages := honsStats.Host.BytesReceived / 4096
		shipped := scsStats.BytesShipped / 4096
		if shipped == 0 {
			shipped = 1
		}
		rows = append(rows, Fig7Row{
			Query:         qn,
			HostOnlyPages: hostPages,
			ShippedPages:  shipped,
			Reduction:     float64(hostPages) / float64(shipped),
		})
	}
	return rows, nil
}

// Fig8Row is one stacked bar of Figure 8: where scs time goes.
type Fig8Row struct {
	Query     int
	NDP       float64 // plain near-data processing (the vcs-equivalent work)
	Freshness float64 // Merkle verification + RPMB
	Decrypt   float64 // page decryption
	Other     float64 // channel, TEE transitions, transfer
}

// Fig8 reproduces Figure 8: the relative cost breakdown of running each
// query with IronSafe (fractions sum to 1).
func Fig8(sf float64, queries []int) ([]Fig8Row, error) {
	data := tpch.Generate(sf)
	scs, err := newCluster(ironsafe.IronSafe, data, nil)
	if err != nil {
		return nil, err
	}
	model := scs.CostModel()
	var rows []Fig8Row
	for _, qn := range queries {
		_, stats, err := runQuery(scs, tpch.Queries[qn])
		if err != nil {
			return nil, fmt.Errorf("fig8 q%d: %w", qn, err)
		}
		rows = append(rows, breakdownFractions(qn, model, stats))
	}
	return rows, nil
}

// breakdownFractions prices one split query's stats into the Figure 8 cost
// fractions (shared by the figure reproduction and the JSON emitter).
func breakdownFractions(qn int, model *simtime.CostModel, stats *ironsafe.QueryStats) Fig8Row {
	hostCost := model.PriceCPU(stats.Host, model.Host, 1)
	storCost := model.PriceCPU(stats.Storage, model.Storage, 0)
	ndp := hostCost.Compute + hostCost.PageIO + storCost.Compute + storCost.PageIO
	fresh := hostCost.Freshness + storCost.Freshness +
		time.Duration(stats.Storage.RPMBReads+stats.Storage.RPMBWrites)*model.TEE.RPMBRead
	dec := hostCost.Decrypt + storCost.Decrypt
	other := model.PriceTEE(stats.Host) + model.PriceTEE(stats.Storage) - time.Duration(stats.Storage.RPMBReads+stats.Storage.RPMBWrites)*model.TEE.RPMBRead +
		model.PriceBatchTransitions(stats.Host) + model.PriceBatchTransitions(stats.Storage) +
		model.PriceLink(stats.Host.BytesSent+stats.Host.BytesReceived, int64(stats.Offloads*2))
	total := ndp + fresh + dec + other
	if total == 0 {
		total = 1
	}
	return Fig8Row{
		Query:     qn,
		NDP:       float64(ndp) / float64(total),
		Freshness: float64(fresh) / float64(total),
		Decrypt:   float64(dec) / float64(total),
		Other:     float64(other) / float64(total),
	}
}

// Fig9aRow is one group of Figure 9a: q1 latency by input size.
type Fig9aRow struct {
	ScaleFactor   float64
	Hos, Scs, Sos time.Duration
}

// Fig9a reproduces Figure 9a: query 1 execution time vs input size for the
// three secure configurations (lower is better; scs wins everywhere and hos
// degrades fastest once its working set outgrows the EPC).
func Fig9a(sfs []float64) ([]Fig9aRow, error) {
	var rows []Fig9aRow
	for _, sf := range sfs {
		data := tpch.Generate(sf)
		row := Fig9aRow{ScaleFactor: sf}
		for _, m := range []ironsafe.Mode{ironsafe.HostOnlySecure, ironsafe.IronSafe, ironsafe.StorageOnlySecure} {
			c, err := newCluster(m, data, func(cfg *ironsafe.Config) {
				if m == ironsafe.HostOnlySecure {
					cfg.EPCLimitBytes = 4 << 20
				}
			})
			if err != nil {
				return nil, err
			}
			t, _, err := runQuery(c, tpch.Queries[1])
			if err != nil {
				return nil, fmt.Errorf("fig9a sf=%g %s: %w", sf, m, err)
			}
			switch m {
			case ironsafe.HostOnlySecure:
				row.Hos = t
			case ironsafe.IronSafe:
				row.Scs = t
			case ironsafe.StorageOnlySecure:
				row.Sos = t
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9bRow is one group of Figure 9b: q1 latency by filter selectivity.
type Fig9bRow struct {
	SelectivityPct int
	Hos, Scs, Sos  time.Duration
}

// selectivityQuery builds the paper's tweaked query 1: a single filter whose
// selectivity is controlled through the quantity threshold (quantity is
// uniform on 1..50, so qty <= 5 ≈ 10%, qty <= 10 ≈ 20%).
func selectivityQuery(pct int) string {
	threshold := pct / 2 // uniform 1..50: P(qty <= t) = t/50
	return fmt.Sprintf(`select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
		sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, count(*) as count_order
		from lineitem where l_quantity <= %d
		group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus`, threshold)
}

// Fig9b reproduces Figure 9b: query time vs selectivity (10-20%).
func Fig9b(sf float64, pcts []int) ([]Fig9bRow, error) {
	data := tpch.Generate(sf)
	clusters := map[ironsafe.Mode]*ironsafe.Cluster{}
	for _, m := range []ironsafe.Mode{ironsafe.HostOnlySecure, ironsafe.IronSafe, ironsafe.StorageOnlySecure} {
		c, err := newCluster(m, data, func(cfg *ironsafe.Config) {
			if m == ironsafe.HostOnlySecure {
				cfg.EPCLimitBytes = 4 << 20
			}
		})
		if err != nil {
			return nil, err
		}
		clusters[m] = c
	}
	var rows []Fig9bRow
	for _, pct := range pcts {
		row := Fig9bRow{SelectivityPct: pct}
		q := selectivityQuery(pct)
		var err error
		if row.Hos, _, err = runQuery(clusters[ironsafe.HostOnlySecure], q); err != nil {
			return nil, err
		}
		if row.Scs, _, err = runQuery(clusters[ironsafe.IronSafe], q); err != nil {
			return nil, err
		}
		if row.Sos, _, err = runQuery(clusters[ironsafe.StorageOnlySecure], q); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9cRow is one bar of Figure 9c: where sos time goes for q2 and q9.
type Fig9cRow struct {
	Query              int
	FreshnessFraction  float64
	DecryptFraction    float64
	ProcessingFraction float64
}

// Fig9c reproduces Figure 9c: the secure-storage overhead breakdown when
// queries run entirely on the storage server (the paper reports ~70-80%
// freshness verification and ~15% decryption).
func Fig9c(sf float64, queries []int) ([]Fig9cRow, error) {
	data := tpch.Generate(sf)
	// Pin the paper's per-read design point: one full Merkle walk per page.
	// Batched verification deliberately destroys this breakdown (that is its
	// job — see BENCH_results.json for the batched numbers), so the figure
	// reproduction keeps the sequential path.
	sos, err := newCluster(ironsafe.StorageOnlySecure, data, func(cfg *ironsafe.Config) {
		cfg.ScanBatchPages = 1
	})
	if err != nil {
		return nil, err
	}
	model := sos.CostModel()
	var rows []Fig9cRow
	for _, qn := range queries {
		_, stats, err := runQuery(sos, tpch.Queries[qn])
		if err != nil {
			return nil, fmt.Errorf("fig9c q%d: %w", qn, err)
		}
		cost := model.PriceCPU(stats.Storage, model.Storage, 1)
		total := cost.Total()
		if total == 0 {
			total = 1
		}
		rows = append(rows, Fig9cRow{
			Query:              qn,
			FreshnessFraction:  float64(cost.Freshness) / float64(total),
			DecryptFraction:    float64(cost.Decrypt) / float64(total),
			ProcessingFraction: float64(cost.Compute+cost.PageIO) / float64(total),
		})
	}
	return rows, nil
}

// Fig10Row is one line point of Figure 10: speedup vs storage CPU count.
type Fig10Row struct {
	Query    int
	Speedups map[int]float64 // cores -> hos/scs speedup
}

// Fig10 reproduces Figure 10: scs speedup over hos as storage cores vary.
func Fig10(sf float64, queries []int, coreCounts []int) ([]Fig10Row, error) {
	data := tpch.Generate(sf)
	hos, err := newCluster(ironsafe.HostOnlySecure, data, func(cfg *ironsafe.Config) {
		cfg.EPCLimitBytes = 4 << 20
	})
	if err != nil {
		return nil, err
	}
	hosTimes := map[int]time.Duration{}
	for _, qn := range queries {
		t, _, err := runQuery(hos, tpch.Queries[qn])
		if err != nil {
			return nil, fmt.Errorf("fig10 q%d hos: %w", qn, err)
		}
		hosTimes[qn] = t
	}
	rows := make([]Fig10Row, len(queries))
	for i, qn := range queries {
		rows[i] = Fig10Row{Query: qn, Speedups: map[int]float64{}}
	}
	for _, cores := range coreCounts {
		scs, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
			cfg.StorageCores = cores
		})
		if err != nil {
			return nil, err
		}
		for i, qn := range queries {
			t, _, err := runQuery(scs, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("fig10 q%d cores=%d: %w", qn, cores, err)
			}
			rows[i].Speedups[cores] = ratio(hosTimes[qn], t)
		}
	}
	return rows, nil
}

// Fig11Row is one line of Figure 11: offloaded-query speedup vs memory.
type Fig11Row struct {
	Query    int
	Speedups map[int64]float64 // budget bytes -> speedup over smallest budget
}

// Fig11 reproduces Figure 11: speedup of the offloaded portion as storage
// memory grows (normalized to the smallest budget).
func Fig11(sf float64, queries []int, budgets []int64) ([]Fig11Row, error) {
	data := tpch.Generate(sf)
	times := map[int][]time.Duration{}
	for _, budget := range budgets {
		scs, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
			cfg.StorageMemoryBudget = budget
		})
		if err != nil {
			return nil, err
		}
		model := scs.CostModel()
		for _, qn := range queries {
			_, stats, err := runQuery(scs, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("fig11 q%d budget=%d: %w", qn, budget, err)
			}
			// Offloaded portion only: the storage side cost.
			storCost := model.PriceCPU(stats.Storage, model.Storage, 0)
			storCost.TEE = model.PriceTEE(stats.Storage) + model.PriceBatchTransitions(stats.Storage)
			times[qn] = append(times[qn], storCost.Total())
		}
	}
	var rows []Fig11Row
	for _, qn := range queries {
		row := Fig11Row{Query: qn, Speedups: map[int64]float64{}}
		base := times[qn][0]
		for i, budget := range budgets {
			row.Speedups[budget] = ratio(base, times[qn][i])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Row is one line point of Figure 12: storage-side scalability.
type Fig12Row struct {
	Instances int
	// CumulativeNormalized is total work across instances normalized to a
	// single instance; linear scaling tracks the instance count.
	CumulativeNormalized float64
}

// Fig12 reproduces Figure 12: N concurrent engine instances, each on its own
// copy of the secure database, running the offloaded queries.
func Fig12(sf float64, queries []int, instanceCounts []int) ([]Fig12Row, error) {
	data := tpch.Generate(sf)
	// One-instance baseline.
	single, err := fig12Cumulative(data, queries, 1)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for _, n := range instanceCounts {
		cum, err := fig12Cumulative(data, queries, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig12Row{Instances: n, CumulativeNormalized: ratio(cum, single)})
	}
	return rows, nil
}

// fig12Cumulative runs each query's offloaded fragments on n concurrent
// instances (each over its own copy of the protected database) and sums the
// priced storage-side time across all instances.
func fig12Cumulative(data *tpch.Data, queries []int, n int) (time.Duration, error) {
	c, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
		cfg.StorageNodes = n
	})
	if err != nil {
		return 0, err
	}
	// Gather every query's per-table offload fragments via the partitioner.
	var ships []string
	for _, qn := range queries {
		sel, err := parser.ParseSelect(tpch.Queries[qn])
		if err != nil {
			return 0, err
		}
		split, err := partition.SplitQuery(sel, c.Host.Schemas())
		if err != nil {
			return 0, err
		}
		for _, s := range split.Ships {
			ships = append(ships, s.SQL)
		}
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		srv := c.Storage[i]
		go func() {
			for _, sql := range ships {
				if _, err := srv.ExecOffload(sql); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	model := c.CostModel()
	snap := c.StorageMeter.Snapshot()
	cost := model.PriceCPU(snap, model.Storage, 1)
	cost.TEE = model.PriceTEE(snap) + model.PriceBatchTransitions(snap)
	return cost.Total(), nil
}
