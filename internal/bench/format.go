package bench

import (
	"fmt"
	"io"
	"time"
)

// Text formatters printing each experiment the way the paper's figure/table
// reports it.

// PrintFig6 renders Figure 6 as text bars.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: TPC-H speedup of CS execution (higher is better)")
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %10s %10s\n",
		"query", "hons", "vcs", "hos", "scs", "hons/vcs", "hos/scs")
	for _, r := range rows {
		fmt.Fprintf(w, "q%-5d %12s %12s %12s %12s %9.2fx %9.2fx\n",
			r.Query, fmtDur(r.HonsTime), fmtDur(r.VcsTime), fmtDur(r.HosTime), fmtDur(r.ScsTime),
			r.NonSecureSpeedup, r.SecureSpeedup)
	}
	fmt.Fprintf(w, "average secure speedup (paper: 2.3x): %.2fx\n", AverageSecureSpeedup(rows))
}

// PrintFig7 renders Figure 7.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: host<->storage IO reduction (higher is better)")
	fmt.Fprintf(w, "%-6s %15s %15s %10s\n", "query", "host-only pages", "shipped pages", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "q%-5d %15d %15d %9.1fx\n", r.Query, r.HostOnlyPages, r.ShippedPages, r.Reduction)
	}
}

// PrintFig8 renders Figure 8.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8: IronSafe cost breakdown (fractions of total)")
	fmt.Fprintf(w, "%-6s %8s %10s %8s %8s\n", "query", "ndp", "freshness", "decrypt", "other")
	for _, r := range rows {
		fmt.Fprintf(w, "q%-5d %7.1f%% %9.1f%% %7.1f%% %7.1f%%\n",
			r.Query, r.NDP*100, r.Freshness*100, r.Decrypt*100, r.Other*100)
	}
}

// PrintFig9a renders Figure 9a.
func PrintFig9a(w io.Writer, rows []Fig9aRow) {
	fmt.Fprintln(w, "Figure 9a: q1 latency vs input size (lower is better)")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "sf", "hos", "scs", "sos")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8g %12s %12s %12s\n", r.ScaleFactor, fmtDur(r.Hos), fmtDur(r.Scs), fmtDur(r.Sos))
	}
}

// PrintFig9b renders Figure 9b.
func PrintFig9b(w io.Writer, rows []Fig9bRow) {
	fmt.Fprintln(w, "Figure 9b: q1 latency vs selectivity (lower is better)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "selectivity", "hos", "scs", "sos")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d%% %12s %12s %12s\n", r.SelectivityPct, fmtDur(r.Hos), fmtDur(r.Scs), fmtDur(r.Sos))
	}
}

// PrintFig9c renders Figure 9c.
func PrintFig9c(w io.Writer, rows []Fig9cRow) {
	fmt.Fprintln(w, "Figure 9c: sos secure-storage overhead breakdown")
	fmt.Fprintf(w, "%-6s %10s %9s %11s\n", "query", "freshness", "decrypt", "processing")
	for _, r := range rows {
		fmt.Fprintf(w, "q%-5d %9.1f%% %8.1f%% %10.1f%%\n",
			r.Query, r.FreshnessFraction*100, r.DecryptFraction*100, r.ProcessingFraction*100)
	}
}

// PrintFig10 renders Figure 10.
func PrintFig10(w io.Writer, rows []Fig10Row, coreCounts []int) {
	fmt.Fprintln(w, "Figure 10: hos/scs speedup vs storage CPU count (higher is better)")
	fmt.Fprintf(w, "%-6s", "query")
	for _, c := range coreCounts {
		fmt.Fprintf(w, " %7d-cpu", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "q%-5d", r.Query)
		for _, c := range coreCounts {
			fmt.Fprintf(w, " %10.2fx", r.Speedups[c])
		}
		fmt.Fprintln(w)
	}
}

// PrintFig12 renders Figure 12.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintln(w, "Figure 12: storage-side scalability (cumulative work, normalized; linear = ideal)")
	fmt.Fprintf(w, "%-10s %12s %8s\n", "instances", "cumulative", "ideal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %11.2fx %7dx\n", r.Instances, r.CumulativeNormalized, r.Instances)
	}
}

// PrintTable3 renders Table 3.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: GDPR anti-pattern enforcement cost")
	fmt.Fprintf(w, "%-24s %12s %12s %9s\n", "anti-pattern", "non-secure", "ironsafe", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12s %12s %8.1fx\n", r.AntiPattern, fmtDur(r.NonSecure), fmtDur(r.IronSafe), r.Overhead)
	}
}

// PrintTable4 renders Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: host and storage system attestation breakdown")
	fmt.Fprintf(w, "%-16s %-14s %10s\n", "component", "step", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-14s %10s\n", r.Component, r.Step, fmtDur(r.Time))
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}
