// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (E1-E11 in DESIGN.md) plus the ablation bench for the design
// choice DESIGN.md calls out. Simulated latencies (the figures' y-axes) are
// reported as custom metrics alongside wall time; run with
//
//	go test -bench=. -benchmem
//
// and see cmd/ironsafe-bench for the full parameter sweeps.
package ironsafe_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"ironsafe"
	"ironsafe/internal/bench"
	"ironsafe/internal/bufpool"
	"ironsafe/internal/tpch"
)

// benchSF keeps the in-tree benchmarks quick; cmd/ironsafe-bench runs the
// full-size sweeps.
const benchSF = 0.002

var benchData = tpch.Generate(benchSF)

// benchCluster builds a loaded cluster for one mode.
func benchCluster(b testing.TB, mode ironsafe.Mode, tweak func(*ironsafe.Config)) *ironsafe.Cluster {
	b.Helper()
	cfg := ironsafe.Config{Mode: mode}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := ironsafe.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.LoadTPCHData(benchData); err != nil {
		b.Fatal(err)
	}
	if err := c.SetAccessPolicy("read :- sessionKeyIs(bench)"); err != nil {
		b.Fatal(err)
	}
	return c
}

// runQueryBench loops one query on a cluster, reporting the simulated
// latency the figures plot.
func runQueryBench(b *testing.B, c *ironsafe.Cluster, sql string) {
	b.Helper()
	var sim int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr, err := c.NewSession("bench").Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		sim += int64(qr.Stats.Cost.Total())
	}
	b.ReportMetric(float64(sim)/float64(b.N)/1e6, "simulated-ms/op")
}

// BenchmarkFig6 (E1): per-query latency in each Table 2 configuration; the
// figure's speedups are the hons/vcs and hos/scs ratios of these series.
func BenchmarkFig6(b *testing.B) {
	queries := []int{1, 3, 6, 12, 14, 19, 21}
	for _, mode := range []ironsafe.Mode{ironsafe.HostOnlyNonSecure, ironsafe.VanillaCS, ironsafe.HostOnlySecure, ironsafe.IronSafe} {
		c := benchCluster(b, mode, nil)
		for _, qn := range queries {
			b.Run(fmt.Sprintf("%s/q%d", mode, qn), func(b *testing.B) {
				runQueryBench(b, c, tpch.Queries[qn])
			})
		}
	}
}

// BenchmarkFig7 (E2): data movement of the split execution; the figure's
// reduction is host-only pages over these shipped bytes.
func BenchmarkFig7(b *testing.B) {
	c := benchCluster(b, ironsafe.IronSafe, nil)
	for _, qn := range []int{3, 6, 14, 19} {
		b.Run(fmt.Sprintf("q%d", qn), func(b *testing.B) {
			var shipped int64
			for i := 0; i < b.N; i++ {
				qr, err := c.NewSession("bench").Query(tpch.Queries[qn])
				if err != nil {
					b.Fatal(err)
				}
				shipped += qr.Stats.BytesShipped
			}
			b.ReportMetric(float64(shipped)/float64(b.N), "bytes-shipped/op")
		})
	}
}

// BenchmarkFig8 (E3): the scs security components the figure's stacked bars
// break down — freshness hashes and page decryptions per query.
func BenchmarkFig8(b *testing.B) {
	c := benchCluster(b, ironsafe.IronSafe, nil)
	for _, qn := range []int{1, 6} {
		b.Run(fmt.Sprintf("q%d", qn), func(b *testing.B) {
			var hashes, decrypts int64
			for i := 0; i < b.N; i++ {
				qr, err := c.NewSession("bench").Query(tpch.Queries[qn])
				if err != nil {
					b.Fatal(err)
				}
				hashes += qr.Stats.Storage.MerkleHashes
				decrypts += qr.Stats.Storage.PagesDecrypted
			}
			b.ReportMetric(float64(hashes)/float64(b.N), "merkle-hashes/op")
			b.ReportMetric(float64(decrypts)/float64(b.N), "decrypts/op")
		})
	}
}

// BenchmarkFig9a (E4): q1 per configuration (input-size axis swept by
// ironsafe-bench -exp fig9a).
func BenchmarkFig9a(b *testing.B) {
	for _, mode := range []ironsafe.Mode{ironsafe.HostOnlySecure, ironsafe.IronSafe, ironsafe.StorageOnlySecure} {
		c := benchCluster(b, mode, func(cfg *ironsafe.Config) {
			if mode == ironsafe.HostOnlySecure {
				cfg.EPCLimitBytes = 4 << 20
			}
		})
		b.Run(mode.String(), func(b *testing.B) {
			runQueryBench(b, c, tpch.Queries[1])
		})
	}
}

// BenchmarkFig9b (E5): the selectivity-tweaked q1 at 10% and 20%.
func BenchmarkFig9b(b *testing.B) {
	c := benchCluster(b, ironsafe.IronSafe, nil)
	for _, pct := range []int{10, 20} {
		q := fmt.Sprintf(`select l_returnflag, count(*) from lineitem
			where l_quantity <= %d group by l_returnflag`, pct/2)
		b.Run(fmt.Sprintf("sel%d", pct), func(b *testing.B) {
			runQueryBench(b, c, q)
		})
	}
}

// BenchmarkFig9c (E6): queries run entirely on the secure storage node.
func BenchmarkFig9c(b *testing.B) {
	c := benchCluster(b, ironsafe.StorageOnlySecure, nil)
	for _, qn := range []int{2, 9} {
		b.Run(fmt.Sprintf("q%d", qn), func(b *testing.B) {
			runQueryBench(b, c, tpch.Queries[qn])
		})
	}
}

// BenchmarkFig10 (E7): scs with varying storage core counts.
func BenchmarkFig10(b *testing.B) {
	for _, cores := range []int{1, 4, 16} {
		c := benchCluster(b, ironsafe.IronSafe, func(cfg *ironsafe.Config) {
			cfg.StorageCores = cores
		})
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			runQueryBench(b, c, tpch.Queries[6])
		})
	}
}

// BenchmarkFig12 (E9): offload throughput with multiple storage instances.
func BenchmarkFig12(b *testing.B) {
	for _, n := range []int{1, 4} {
		c := benchCluster(b, ironsafe.IronSafe, func(cfg *ironsafe.Config) {
			cfg.StorageNodes = n
		})
		b.Run(fmt.Sprintf("instances%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan error, n)
				for j := 0; j < n; j++ {
					srv := c.Storage[j]
					go func() {
						_, err := srv.ExecOffload("SELECT l_orderkey FROM lineitem WHERE l_quantity < 10")
						done <- err
					}()
				}
				for j := 0; j < n; j++ {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTable3 (E10): the GDPR anti-pattern paths, enforced vs not.
func BenchmarkTable3(b *testing.B) {
	enforced := benchCluster(b, ironsafe.IronSafe, nil)
	if _, err := enforced.Exec("CREATE TABLE pii (id INTEGER, name VARCHAR(16), expiry DATE)"); err != nil {
		b.Fatal(err)
	}
	if _, err := enforced.Exec("INSERT INTO pii VALUES (1, 'a', '1999-01-01'), (2, 'b', '1994-01-01')"); err != nil {
		b.Fatal(err)
	}
	if err := enforced.SetAccessPolicy("read :- sessionKeyIs(bench) & le(T, expiry)"); err != nil {
		b.Fatal(err)
	}
	b.Run("timely-deletion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enforced.NewSession("bench").WithAccessDate("1995-06-17").Query("SELECT name FROM pii"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable4 (E11): the storage attestation protocol (challenge, TA
// signing, certificate chain).
func BenchmarkTable4(b *testing.B) {
	c := benchCluster(b, ironsafe.IronSafe, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Storage[0].Attest([]byte("bench-challenge")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation bench (DESIGN.md design choices) ---

// BenchmarkAblationPushdown compares split execution with predicate pushdown
// (the partitioner's default) against shipping whole tables.
func BenchmarkAblationPushdown(b *testing.B) {
	c := benchCluster(b, ironsafe.IronSafe, nil)
	selective := "SELECT sum(l_extendedprice) FROM lineitem WHERE l_quantity < 5"
	whole := "SELECT sum(l_extendedprice) FROM lineitem"
	b.Run("with-pushdown", func(b *testing.B) { runQueryBench(b, c, selective) })
	b.Run("whole-table", func(b *testing.B) { runQueryBench(b, c, whole) })
}

// BenchmarkQueryThroughput measures raw end-to-end queries per second for
// the full authorized path (go test -bench reports ns/op = full pipeline).
func BenchmarkQueryThroughput(b *testing.B) {
	c := benchCluster(b, ironsafe.IronSafe, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.NewSession("bench").Query("SELECT count(*) FROM nation"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchDataLoaded guards the package-level benchmark fixture.
func TestBenchDataLoaded(t *testing.T) {
	if benchData.TotalRows() == 0 {
		t.Fatal("benchmark data empty")
	}
	if len(bench.DefaultQueries()) != 16 {
		t.Fatal("query set drifted")
	}
}

// TestSteadyStateQueriesReuseScratch: a statement's arrays — vectors, window
// indexes, key tables, aggregation state — go back to their pools when it
// ends, so the same queries run again take them from there. scs q18 and q21
// on the benchmark fixture, run a second time with the collector off (which
// would empty the pools), allocate under half the bytes of their first run.
// The race build's sync.Pool drops arrays at random, so it is skipped there.
func TestSteadyStateQueriesReuseScratch(t *testing.T) {
	if bufpool.Poison {
		t.Skip("bufpool.Poison: the race build, whose sync.Pool drops arrays at random")
	}
	// The pools keep arrays per P, and the storage side runs on goroutines
	// of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := benchCluster(t, ironsafe.IronSafe, nil)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, qn := range []int{18, 21} {
			if _, err := c.NewSession("bench").Query(tpch.Queries[qn]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if second := run(); 2*second >= first {
		t.Errorf("q18 and q21 allocate %d bytes run again, %d the first time: want under half", second, first)
	}
}
