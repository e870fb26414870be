// Command ironsafe-vet runs IronSafe's repo-specific static-analysis suite:
// the call- and import-site rules (wallclock, cryptorand, boundary, rawnet,
// ...) plus the dataflow analyzers (plainflow, failopen, policypath)
// described in DESIGN.md ("Static analysis & invariants"). It is a
// standalone multichecker built on internal/analysis.
//
// Usage:
//
//	ironsafe-vet [packages]            # default ./...
//	ironsafe-vet -only wallclock,failopen ./internal/...
//	ironsafe-vet -tests ./...          # analyze _test.go files too
//	ironsafe-vet -json ./...           # machine-readable findings report
//	ironsafe-vet -list
//
// Exit status is 0 when no findings survive the //ironsafe:allow
// directives, 1 when findings are reported, 2 on operational errors. -json
// keeps the same exit semantics but writes a single JSON document to
// stdout: the findings, per-analyzer counts, and the full inventory of
// allow directives with their rationales — diffable across commits the same
// way BENCH_results.json is.
//
// go vet -vettool integration requires the golang.org/x/tools unitchecker
// protocol, which needs the x/tools module; this build environment vendors
// no third-party modules, so vettool invocations are detected and rejected
// with an explanation rather than silently misbehaving. Run the standalone
// form (or `make lint`) instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ironsafe/internal/analysis"
)

// report is the -json output document.
type report struct {
	// Analyzers lists the analyzers that ran, in suite order.
	Analyzers []string `json:"analyzers"`
	// Packages is how many packages were loaded and checked.
	Packages int `json:"packages"`
	// Findings are the diagnostics that survived allow directives.
	Findings []jsonFinding `json:"findings"`
	// Counts maps analyzer name to surviving-finding count (zero counts
	// included so diffs show an analyzer going quiet).
	Counts map[string]int `json:"counts"`
	// Allows inventories every //ironsafe:allow directive with its
	// rationale: the complete audited-exception surface of the repo.
	Allows []jsonAllow `json:"allows"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type jsonAllow struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Rationale string   `json:"rationale"`
}

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list analyzers and exit")
	tests := flag.Bool("tests", false, "also load and analyze _test.go files")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ironsafe-vet [-only a,b] [-tests] [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		var ok bool
		analyzers, ok = analysis.ByName(strings.Split(*only, ","))
		if !ok {
			fatal("unknown analyzer in -only=%s (use -list)", *only)
		}
	}

	args := flag.Args()
	// go vet -vettool drives tools through the x/tools unitchecker
	// protocol: a single JSON *.cfg argument per package. Without x/tools
	// in the build we cannot speak it; fail loudly instead of parsing the
	// cfg path as a package pattern.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		fatal("invoked as a go vet -vettool (unitchecker protocol); this build has no golang.org/x/tools dependency — run `go run ./cmd/ironsafe-vet ./...` or `make lint` instead")
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fatal("%v", err)
	}
	pkgs, err := analysis.LoadWith(root, args, analysis.LoadConfig{IncludeTests: *tests})
	if err != nil {
		fatal("%v", err)
	}

	rep := report{Packages: len(pkgs), Counts: map[string]int{}}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
		rep.Counts[a.Name] = 0
	}
	exit := 0
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fatal("%v", err)
		}
		for _, f := range findings {
			exit = 1
			rep.Counts[f.Analyzer]++
			if *jsonOut {
				rep.Findings = append(rep.Findings, jsonFinding{
					Analyzer: f.Analyzer,
					File:     relTo(root, f.Pos.Filename),
					Line:     f.Pos.Line,
					Column:   f.Pos.Column,
					Message:  f.Message,
				})
			} else {
				fmt.Println(f)
			}
		}
		if *jsonOut {
			for _, d := range analysis.CollectDirectives(pkg) {
				rep.Allows = append(rep.Allows, jsonAllow{
					File:      relTo(root, d.Pos.Filename),
					Line:      d.Pos.Line,
					Analyzers: d.Analyzers,
					Rationale: d.Rationale,
				})
			}
		}
	}
	if *jsonOut {
		sort.Slice(rep.Allows, func(i, j int) bool {
			if rep.Allows[i].File != rep.Allows[j].File {
				return rep.Allows[i].File < rep.Allows[j].File
			}
			return rep.Allows[i].Line < rep.Allows[j].Line
		})
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal("%v", err)
		}
	}
	os.Exit(exit)
}

// relTo keeps report paths stable across checkouts.
func relTo(root, path string) string {
	if rel, ok := strings.CutPrefix(path, root+string(os.PathSeparator)); ok {
		return rel
	}
	return path
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironsafe-vet: "+format+"\n", args...)
	os.Exit(2)
}
