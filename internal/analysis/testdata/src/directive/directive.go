// Package directive is golden testdata for the directive auditor: allow
// comments must carry a rationale and name real analyzers.
package directive

//ironsafe:allow wallclock // want "no rationale"
func missingRationale() {}

//ironsafe:allow nosuchanalyzer -- justified at length // want "unknown analyzer"
func unknownName() {}

//ironsafe:allow failopen -- fixture corpus seeds intentionally broken seals
func fine() {}
