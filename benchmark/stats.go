package main

import (
	"math"
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the exact nearest-rank percentile.
func percentile(v []float64, pct int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	idx := (pct*len(s) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return s[idx-1]
}

// fastest is the 1st percentile, nearest rank: the minimum of fewer than a
// hundred samples, the 40th smallest of four thousand.
func fastest(v []float64) float64 { return percentile(v, 1) }

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// iqrShare is the distance between the first and third quartile as a share of
// the median — the spread the acceptance rule is stated in. It uses the same
// exclusive method as Python's statistics.quantiles(values, n=4).
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
