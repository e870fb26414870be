//go:build race

package exec

func init() { poisonReleased = true }
