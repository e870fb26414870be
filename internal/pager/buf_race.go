//go:build race

package pager

func init() { poison = true }
