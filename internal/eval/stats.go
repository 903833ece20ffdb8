package eval

import "math"

// WilsonInterval returns the Wilson score interval for a binomial
// proportion at the given z (1.96 for 95%). The harness uses it to state
// how much of a paper-vs-measured delta is explainable by finite n: with
// the paper's n=10 per prompt, per-cell values carry wide intervals, which
// is why EXPERIMENTS.md compares trends cell-by-cell rather than demanding
// exact equality.
func WilsonInterval(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if z <= 0 {
		z = 1.96
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// PassInterval is the 95% Wilson interval of a cell's pass rate.
func (c CellStats) PassInterval() (lo, hi float64) {
	return WilsonInterval(c.Passed, c.Samples, 1.96)
}
