// Package plainrand imports math/rand outside the security-critical
// subtrees: still flagged, with the softer remediation message.
package plainrand

import "math/rand" // want `use crypto/rand, or exempt this package in the cryptorand rule`

func jitter() int { return rand.Intn(10) }
