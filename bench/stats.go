package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks. vs need not be sorted. Empty input yields 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vs, n=4) does (its default "exclusive" method), so
// the spreads compare prints match the ones an outside check computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// gmean is the geometric mean of positive values (0 for empty input).
func gmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
