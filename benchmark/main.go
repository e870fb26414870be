// Command benchmark is the repository's two-clock, layer-attributed
// benchmark. It drives the public API (ironsafe.NewCluster, Session.Query,
// Cluster.IngestPipeline) from outside for the end-to-end metrics, and in a
// separate traced run times calls into each module's exported functions for
// the per-layer metrics. README.md is the manual; BENCHMARK.json at the
// repository root is the contract.
//
//	go run ./benchmark -workload scs-scan -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code as values, so the smoke test
// drives the same code path the command line does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md); required unless -selfcheck or -update-golden")
	seed := fs.Int64("seed", 1, "input seed: PII rows, GDPR predicates, ingest payloads, op rotation")
	seconds := fs.Float64("seconds", 15, "measured seconds of the timed run")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	procs := fs.Int("procs", 1, "GOMAXPROCS for the run; 0 keeps the Go default (every core)")
	scale := fs.String("scale", "full", "full, or tiny (one pass at smoke-test scale)")
	outDir := fs.String("out", "benchmark/out", "directory for result and trace files")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice (A/A) and fail if an end-to-end metric disagrees beyond its bound")
	updateGolden := fs.Bool("update-golden", false, "regenerate the committed digests under -golden-dir")
	goldenDir := fs.String("golden-dir", "benchmark/golden", "where -update-golden writes digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One scheduler thread by default: on a sandbox of two shared cores a run
	// that keeps both busy (mutator beside the garbage collector's workers)
	// measures whatever else wants a core; with one, the spare core absorbs it
	// and timed metrics repeat to 2-3 % instead of 9-30 %.
	if *procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*procs))
	}
	size := fullSize
	switch *scale {
	case "full":
	case "tiny":
		size = tinySize
	default:
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q\n", *scale)
		return 2
	}
	gold, err := loadGolden(*updateGolden)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	switch {
	case *updateGolden:
		err = updateGoldenFiles(gold, *seed, *goldenDir, stderr)
	case *selfcheck:
		err = selfCheck(gold, *seed, *seconds, size, *outDir, stderr)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", *name)
			return 2
		}
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, size: size, outDir: *outDir}
		var rep *report
		rep, _, err = runOne(cfg, gold, *trace != 0, stderr)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// runOne performs one timed or traced run, writes its results file and
// returns the contract's report beside it.
func runOne(cfg runConfig, gold *goldenSet, traced bool, stderr io.Writer) (*report, *resultFile, error) {
	r := &runner{cfg: cfg, gold: gold}
	defs, suffix := endToEndMetrics, ".result.json"
	var vals map[string]float64
	var rf *resultFile
	var err error
	if traced {
		defs, suffix = perLayerMetrics, ".layers.json"
		vals, rf, err = r.traced()
	} else {
		vals, rf, err = r.timed()
	}
	if err != nil {
		return nil, nil, err
	}
	metrics, err := fillMetrics(defs, vals)
	if err != nil {
		return nil, nil, err
	}
	rf.Metrics = metrics
	if err := rf.write(cfg.outDir, suffix); err != nil {
		return nil, nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", cfg.w.name, p)
	}
	if r.attempted < 1 {
		return nil, nil, fmt.Errorf("%s: no op was attempted", cfg.w.name)
	}
	return &report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, rf, nil
}

// updateGoldenFiles records, for every workload at both scales, the digests
// the hons reference produces — after checking that the workload's own
// configuration reproduces them.
func updateGoldenFiles(gold *goldenSet, seed int64, dir string, stderr io.Writer) error {
	for i := range workloads {
		w := &workloads[i]
		for _, sz := range []sizing{fullSize, tinySize} {
			want, _, err := reference(w, seed, sz, gold)
			if err != nil {
				return err
			}
			e, err := buildEnv(w, w.mode, seed, sz, nil)
			if err != nil {
				return err
			}
			for k, op := range e.ops {
				if want[op.name] == "" {
					continue
				}
				qr, err := e.sess[k].Query(op.sql)
				if err != nil {
					return fmt.Errorf("%s %s: %w", w.name, op.name, err)
				}
				if d := digest(qr.Result); d != want[op.name] {
					return fmt.Errorf("%s %s: %s rows differ from the hons reference; refusing to record", w.name, op.name, w.mode)
				}
			}
			fmt.Fprintf(stderr, "golden: %s (sf %g, pii %d) agrees with hons on %d ops\n", w.name, sz.sf(w), w.piiRows, len(want))
		}
	}
	return gold.save(dir)
}
