package analysis

// Suite returns the full ironsafe-vet analyzer suite in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{Wallclock, Cryptorand, Noncereuse, Boundary, Rawnet, Journalbypass, Readmit, Budgetless, Lockcrypto, Plainflow, Failopen, Policypath, Earlyack, Rowloop, Metercharge, Directive}
}

// ByName resolves a comma-separated analyzer name list against the suite.
func ByName(names []string) ([]*Analyzer, bool) {
	byName := map[string]*Analyzer{}
	for _, a := range Suite() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}
