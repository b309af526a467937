package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a tail metric, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile that leaves at least ten
// samples beyond it, and its value. With fewer than forty samples no
// candidate qualifies, and the median is returned.
func tail(xs []float64) (pct, value float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or a when b is zero, so a count per zero events stays
// finite (the reports name the base of every ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return a
	}
	return a / b
}
