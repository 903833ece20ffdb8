package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonKnownValue(t *testing.T) {
	// classic check: 8/10 at 95% is about (0.49, 0.94)
	lo, hi := WilsonInterval(8, 10, 1.96)
	if math.Abs(lo-0.490) > 0.02 || math.Abs(hi-0.943) > 0.02 {
		t.Fatalf("interval = (%f, %f)", lo, hi)
	}
}

func TestWilsonDegenerate(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty sample interval = (%f, %f)", lo, hi)
	}
	lo, hi = WilsonInterval(0, 10, 1.96)
	if lo != 0 || hi <= 0 {
		t.Fatalf("zero successes interval = (%f, %f)", lo, hi)
	}
	lo, hi = WilsonInterval(10, 10, 1.96)
	if hi != 1 || lo >= 1 {
		t.Fatalf("all successes interval = (%f, %f)", lo, hi)
	}
}

func TestWilsonContainsPointEstimate(t *testing.T) {
	f := func(s, n uint8) bool {
		nn := int(n%50) + 1
		ss := int(s) % (nn + 1)
		lo, hi := WilsonInterval(ss, nn, 1.96)
		p := float64(ss) / float64(nn)
		return lo <= p+1e-9 && p <= hi+1e-9 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonNarrowsWithN(t *testing.T) {
	lo1, hi1 := WilsonInterval(5, 10, 1.96)
	lo2, hi2 := WilsonInterval(500, 1000, 1.96)
	if !(hi2-lo2 < hi1-lo1) {
		t.Fatal("interval should narrow with larger n")
	}
}

func TestCellIntervals(t *testing.T) {
	c := CellStats{Samples: 10, Compiled: 9, Passed: 5}
	plo, phi := c.PassInterval()
	clo, chi := WilsonInterval(c.Compiled, c.Samples, 1.96)
	if !(plo < 0.5 && 0.5 < phi) {
		t.Fatalf("pass interval (%f, %f)", plo, phi)
	}
	if !(clo < 0.9 && 0.9 <= chi) {
		t.Fatalf("compile interval (%f, %f)", clo, chi)
	}
	if !(clo > plo) {
		t.Fatal("higher rate should shift the interval up")
	}
}

// randomCellStats builds a CellStats from fuzz bytes. Latency sums are
// multiples of 0.25, which are exact in binary floating point at these
// magnitudes, so the algebraic properties below hold with == rather than
// a tolerance: the merge path promises bit-identical, not approximately
// equal, pooling.
func randomCellStats(samples, compiled, passed, latQuarters uint8) CellStats {
	s := int(samples)
	c := int(compiled) % (s + 1)
	return CellStats{
		Samples:  s,
		Compiled: c,
		Passed:   int(passed) % (c + 1),
		SumLat:   0.25 * float64(latQuarters),
	}
}

func TestCellStatsAddCommutative(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		x, y := randomCellStats(a[0], a[1], a[2], a[3]), randomCellStats(b[0], b[1], b[2], b[3])
		ab, ba := x, y
		ab.Add(y)
		ba.Add(x)
		return ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellStatsAddAssociative(t *testing.T) {
	f := func(a, b, c [4]uint8) bool {
		x := randomCellStats(a[0], a[1], a[2], a[3])
		y := randomCellStats(b[0], b[1], b[2], b[3])
		z := randomCellStats(c[0], c[1], c[2], c[3])
		left := x // (x+y)+z
		left.Add(y)
		left.Add(z)
		yz := y // x+(y+z)
		yz.Add(z)
		right := x
		right.Add(yz)
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellStatsAddZeroIdentity(t *testing.T) {
	f := func(a [4]uint8) bool {
		x := randomCellStats(a[0], a[1], a[2], a[3])
		sum := x
		sum.Add(CellStats{})
		return sum == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
