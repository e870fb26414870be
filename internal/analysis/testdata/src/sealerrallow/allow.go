// Package sealerrallow seeds a discarded verification error suppressed by a
// failopen allow directive; the harness asserts no diagnostic survives.
package sealerrallow

func Verify(sig []byte) error { return nil }

func bestEffortRecheck() {
	// A best-effort advisory re-verification whose failure is handled by
	// the mandatory check that follows on the caller's path.
	Verify(nil) //ironsafe:allow failopen -- advisory recheck; mandatory verification happens at the monitor
}
