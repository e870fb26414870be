//go:build race

package transport

func init() { poison = true }
