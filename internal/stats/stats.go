// Package stats provides the small numeric helpers the experiment runners
// and reports share: means, quantiles, moving averages, and (x, y) series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MinMax returns the smallest and largest values; both 0 for an empty
// slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation on
// the sorted copy of xs; 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q * float64(len(s)-1))
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return float64(s[i]*(1-frac)) + float64(s[i+1]*frac)
}

// MovingAvg returns the trailing moving average of window w (w <= 1 returns
// a copy).
func MovingAvg(xs []float64, w int) []float64 {
	out := make([]float64, len(xs))
	if w <= 1 {
		copy(out, xs)
		return out
	}
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= w {
			sum -= xs[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Series is a named (x, y) sequence — one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// NewSeries builds a series with X = 0..len(y)-1.
func NewSeries(name string, y []float64) Series {
	x := make([]float64, len(y))
	for i := range x {
		x[i] = float64(i)
	}
	return Series{Name: name, X: x, Y: y}
}

// Validate checks that X and Y have equal nonzero length and are finite.
func (s Series) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("stats: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
	}
	for i := range s.Y {
		if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
			return fmt.Errorf("stats: series %q has non-finite y[%d]", s.Name, i)
		}
	}
	return nil
}
