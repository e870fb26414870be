// Package directiveallow suppresses a directive finding with a directive: the
// unexplained allow below is flagged by the directive auditor unless the line
// above allows it; the harness asserts no diagnostic survives.
package directiveallow

//ironsafe:allow directive -- fixture: the next directive is deliberately unexplained
//ironsafe:allow wallclock
func unexplained() {}
