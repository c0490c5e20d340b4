package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: fewer would make the tail one or two unlucky samples.
const tailBeyond = 10

// sample is one metric's raw observations.
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle observation (the mean of the two middles for an
// even count); NaN for an empty sample.
func (s sample) median() float64 {
	x := s.sorted()
	n := len(x)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// tail returns the highest percentile of the sample that still has at
// least tailBeyond observations above it, and the percentile it stands
// for. Samples too small to have one fall back to the median, reported as
// percentile 50.
func (s sample) tail() (value, pct float64) {
	x := s.sorted()
	n := len(x)
	k := n - 1 - tailBeyond
	if k < n/2 {
		return s.median(), 50
	}
	return x[k], 100 * float64(k+1) / float64(n)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
