package analysis_test

import (
	"testing"

	"ironsafe/internal/analysis"
	"ironsafe/internal/analysis/analysistest"
)

func TestPlainflow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Plainflow, "internal/securestore/plainflow")
}

func TestPlainflowAllowDirective(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Plainflow, "internal/securestore/plainflowallow")
}

func TestPlainflowTicketSecret(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Plainflow, "internal/transport/ticketflow")
}

func TestFailopen(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Failopen, "failopen")
}

func TestFailopenAllowDirective(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Failopen, "failopenallow")
}

func TestPolicypath(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Policypath, "cmd/policypath")
}

func TestPolicypathAllowDirective(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Policypath, "cmd/policypathallow")
}

func TestPolicypathScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Policypath, "internal/pager/policyscope")
}

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Directive, "directive")
}
