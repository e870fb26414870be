//go:build race

package securestore

func init() { raceEnabled = true }
