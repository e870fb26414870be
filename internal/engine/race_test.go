//go:build race

package engine_test

func init() { raceEnabled = true }
