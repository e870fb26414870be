package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the self-check needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

const selfCheckRuns = 3 // runs per side

// selfCheck is the A/A test: two interleaved sets of runs of the same binary
// on the same seed must agree within every end-to-end metric's bound. A
// simulated metric (unit sim_ms) that is not bit-identical across the runs is
// pointed out.
func selfCheck(gold *goldenSet, seed int64, seconds float64, size sizing, outDir string, stderr io.Writer) error {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return err
	}
	var bad []string
	for i := range workloads {
		w := &workloads[i]
		sides := [2]map[string][]float64{{}, {}}
		var calib [2][]float64
		for run := 0; run < 2*selfCheckRuns; run++ {
			cfg := runConfig{w: w, seed: seed, seconds: seconds, size: size, outDir: outDir}
			rep, rf, err := runOne(cfg, gold, false, stderr)
			if err != nil {
				return err
			}
			calib[run%2] = append(calib[run%2], (rf.CalibMs[0]+rf.CalibMs[1])/2)
			if !rep.Correct {
				bad = append(bad, fmt.Sprintf("%s: run %d had %d failed ops", w.name, run, rep.Failed))
			}
			for name, m := range rep.Metrics {
				sides[run%2][name] = append(sides[run%2][name], m.Value)
			}
		}
		fmt.Fprintf(stderr, "\n%s (A/A, %d runs per side, seed %d)\n", w.name, selfCheckRuns, seed)
		// Machine-speed drift between the sides makes wall-clock disagreement
		// meaningless: such pairs are unresolved, not compared.
		ca, cb := median(calib[0]), median(calib[1])
		drifted := ca > 1.05*cb || cb > 1.05*ca
		fmt.Fprintf(stderr, "  calibration loop: %.2f ms vs %.2f ms (drifted: %v)\n", ca, cb, drifted)
		fmt.Fprintf(stderr, "  %-20s %-7s %14s %14s %9s %9s %7s\n", "metric", "unit", "median A", "median B", "worse by", "spread", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sides[0][m.Name], sides[1][m.Name]
			ma, mb := median(a), median(b)
			worse := div(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			if worse < 0 {
				worse = -worse // A/A: either side may be the "parent"
			}
			spread := iqrShare(append(append([]float64(nil), a...), b...))
			verdict := ""
			switch {
			case worse > m.Bound && drifted && m.Unit != "sim_ms" && m.Unit != "ratio":
				verdict = "  unresolved (calibration drifted > 5%)"
			case worse > m.Bound:
				verdict = "  DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: medians %.6g vs %.6g differ by %.2f%% (bound %.2f%%)", w.name, m.Name, ma, mb, 100*worse, 100*m.Bound))
			case m.Unit == "sim_ms" && spread != 0:
				// Reported, not fatal: on hos the EPC-fault count follows how
				// the read-ahead goroutine interleaves with the scan.
				verdict = "  not bit-identical"
			case spread > m.Bound:
				verdict = "  unresolved (spread > bound)"
			}
			fmt.Fprintf(stderr, "  %-20s %-7s %14.6g %14.6g %8.2f%% %8.2f%% %6.1f%%%s\n", m.Name, m.Unit, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(stderr, "\nselfcheck: every end-to-end metric agrees within its bound on every workload")
	return nil
}
