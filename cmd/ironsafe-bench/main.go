// Command ironsafe-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the same rows/series the paper
// reports; latencies are simulated times from the calibrated cost model over
// real measured work.
//
// Usage:
//
//	ironsafe-bench -exp fig6 -sf 0.01
//	ironsafe-bench -exp all  -sf 0.005
//
// Experiments: fig6 fig7 fig8 fig9a fig9b fig9c fig10 fig11 fig12 table2
// table3 table4 json all. The json experiment writes the machine-readable
// BENCH_results.json (per-query times for all five Table 2 configurations,
// scs cost-breakdown fractions, and scan-pipeline counters) so the perf
// trajectory is trackable across PRs; `make benchjson` regenerates it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ironsafe/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig6..fig12, table2..table4, json, all)")
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	queriesFlag := flag.String("queries", "", "comma-separated query numbers (default: the paper's 16)")
	jsonPath := flag.String("json", "BENCH_results.json", "output path of the json experiment")
	flag.Parse()

	queries := bench.DefaultQueries()
	if *queriesFlag != "" {
		queries = nil
		for _, part := range strings.Split(*queriesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal("bad query number %q", part)
			}
			queries = append(queries, n)
		}
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		// Real wall time of the experiment harness itself, printed for the
		// operator; the reported latencies stay simulated.
		start := time.Now() //ironsafe:allow wallclock -- harness progress reporting
		if err := fn(); err != nil {
			fatal("%s: %v", name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond)) //ironsafe:allow wallclock -- harness progress reporting
	}

	run("table2", func() error {
		fmt.Println("Table 2: system configurations")
		for _, line := range bench.Table2() {
			fmt.Println("  " + line)
		}
		return nil
	})
	run("fig6", func() error {
		rows, err := bench.Fig6(*sf, queries)
		if err != nil {
			return err
		}
		bench.PrintFig6(os.Stdout, rows)
		return nil
	})
	run("fig7", func() error {
		rows, err := bench.Fig7(*sf, queries)
		if err != nil {
			return err
		}
		bench.PrintFig7(os.Stdout, rows)
		return nil
	})
	run("fig8", func() error {
		rows, err := bench.Fig8(*sf, queries)
		if err != nil {
			return err
		}
		bench.PrintFig8(os.Stdout, rows)
		return nil
	})
	run("fig9a", func() error {
		// Stand-ins for the paper's SF 3/4/5 at laptop scale.
		rows, err := bench.Fig9a([]float64{*sf, *sf * 4 / 3, *sf * 5 / 3})
		if err != nil {
			return err
		}
		bench.PrintFig9a(os.Stdout, rows)
		return nil
	})
	run("fig9b", func() error {
		rows, err := bench.Fig9b(*sf, []int{10, 12, 14, 16, 18, 20})
		if err != nil {
			return err
		}
		bench.PrintFig9b(os.Stdout, rows)
		return nil
	})
	run("fig9c", func() error {
		rows, err := bench.Fig9c(*sf, []int{2, 9})
		if err != nil {
			return err
		}
		bench.PrintFig9c(os.Stdout, rows)
		return nil
	})
	run("fig10", func() error {
		cores := []int{1, 2, 4, 8, 16}
		rows, err := bench.Fig10(*sf, queries, cores)
		if err != nil {
			return err
		}
		bench.PrintFig10(os.Stdout, rows, cores)
		return nil
	})
	run("fig11", func() error {
		budgets := []int64{8 << 10, 16 << 10, 128 << 10} // scaled-down 128MiB/256MiB/2GiB
		rows, err := bench.Fig11(*sf, queries, budgets)
		if err != nil {
			return err
		}
		bench.PrintFig11(os.Stdout, rows, budgets)
		return nil
	})
	run("fig12", func() error {
		rows, err := bench.Fig12(*sf, queries, []int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		bench.PrintFig12(os.Stdout, rows)
		return nil
	})
	run("table3", func() error {
		rows, err := bench.Table3()
		if err != nil {
			return err
		}
		bench.PrintTable3(os.Stdout, rows)
		return nil
	})
	run("table4", func() error {
		rows, err := bench.Table4()
		if err != nil {
			return err
		}
		bench.PrintTable4(os.Stdout, rows)
		return nil
	})
	run("json", func() error {
		res, err := bench.CollectResults(*sf, queries)
		if err != nil {
			return err
		}
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (sf=%g, %d queries, %d configs)\n", *jsonPath, *sf, len(queries), len(res.TimesMicros))
		return nil
	})
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironsafe-bench: "+format+"\n", args...)
	os.Exit(1)
}
