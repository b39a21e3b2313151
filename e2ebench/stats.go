package main

import (
	"math"
	"sort"
	"time"
)

// dist is a latency sample set in milliseconds.
type dist []float64

func (d *dist) add(t time.Duration) { *d = append(*d, ms(t)) }

func ms(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count); NaN when empty.
func (d dist) median() float64 {
	s := d.sorted()
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and that percentile. With ten samples or fewer
// it falls back to the maximum (percentile 100).
func (d dist) tail() (value, pct float64) {
	s := d.sorted()
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// ratio returns num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
