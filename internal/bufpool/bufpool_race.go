//go:build race

package bufpool

func init() { Poison = true }
