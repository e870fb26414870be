package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"time"

	"ironsafe/internal/simtime"
)

// pinnedModel is a literal copy of simtime.DefaultModel() as of the commit
// that added this benchmark. Every cluster the benchmark builds prices its
// meters with this list, so a simulated metric moves only when a work
// counter moves; an edit to the repository's default price list shows up in
// simtime.model_drift and never as a speed-up.
func pinnedModel() simtime.CostModel {
	return simtime.CostModel{
		Host: simtime.CPUProfile{
			Name:          "x86-i9-10900K",
			TupleUnit:     15 * time.Nanosecond,
			BatchDispatch: 40 * time.Nanosecond,
			PageTouch:     350 * time.Nanosecond,
			Cores:         10,
			DecryptPage:   4400 * time.Nanosecond,
			EncryptPage:   4800 * time.Nanosecond,
			HashNode:      1800 * time.Nanosecond,
		},
		Storage: simtime.CPUProfile{
			Name:          "arm-cortex-a72",
			TupleUnit:     30 * time.Nanosecond,
			BatchDispatch: 100 * time.Nanosecond,
			PageTouch:     800 * time.Nanosecond,
			Cores:         16,
			DecryptPage:   10400 * time.Nanosecond,
			EncryptPage:   11200 * time.Nanosecond,
			HashNode:      4200 * time.Nanosecond,
		},
		Link: simtime.LinkProfile{
			Name:       "40GbE",
			PerByte:    time.Duration(1),
			PerMessage: 30 * time.Microsecond,
		},
		TEE: simtime.TEEProfile{
			EnclaveTransition: 8 * time.Microsecond,
			BatchTransition:   1 * time.Microsecond,
			EPCFault:          12 * time.Microsecond,
			EPCLimitBytes:     96 << 20,
			WorldSwitch:       4 * time.Microsecond,
			RPMBRead:          150 * time.Microsecond,
			RPMBWrite:         400 * time.Microsecond,
		},
	}
}

// modelVersion is a short hash of the pinned price list, stored beside every
// simulated number so a work reduction and a price edit cannot be confused.
func modelVersion() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", pinnedModel())))
	return hex.EncodeToString(sum[:6])
}

// modelDrift counts the leaf fields of simtime.DefaultModel() that differ
// from the pinned list.
func modelDrift() int {
	return diffLeaves(reflect.ValueOf(simtime.DefaultModel()), reflect.ValueOf(pinnedModel()))
}

func diffLeaves(a, b reflect.Value) int {
	if a.Kind() == reflect.Struct {
		n := 0
		for i := 0; i < a.NumField(); i++ {
			n += diffLeaves(a.Field(i), b.Field(i))
		}
		return n
	}
	if a.Interface() != b.Interface() {
		return 1
	}
	return 0
}
