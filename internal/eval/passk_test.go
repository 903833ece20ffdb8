package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestPassAtKBoundaries(t *testing.T) {
	if PassAtK(10, 0, 5) != 0 {
		t.Error("no correct samples should give 0")
	}
	if PassAtK(10, 10, 1) != 1 {
		t.Error("all correct should give 1")
	}
	if PassAtK(10, 5, 10) != 1 {
		t.Error("k=n with any correct should give 1")
	}
	if PassAtK(0, 0, 5) != 0 || PassAtK(10, 5, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestPassAtKKnownValues(t *testing.T) {
	// n=10, c=1, k=1 -> 0.1
	if got := PassAtK(10, 1, 1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("pass@1 = %f", got)
	}
	// n=10, c=1, k=10 -> 1
	if got := PassAtK(10, 1, 10); got != 1 {
		t.Errorf("pass@10 = %f", got)
	}
	// n=4, c=2, k=2 -> 1 - C(2,2)/C(4,2) = 1 - 1/6
	if got := PassAtK(4, 2, 2); math.Abs(got-(1-1.0/6)) > 1e-12 {
		t.Errorf("pass@2 = %f", got)
	}
}

func TestPassAtKMonotoneInK(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 20; k++ {
		v := PassAtK(20, 6, k)
		if v < prev-1e-12 {
			t.Fatalf("not monotone at k=%d: %f < %f", k, v, prev)
		}
		prev = v
	}
}

func TestPassAtKMatchesMonteCarlo(t *testing.T) {
	n, c, k := 25, 7, 5
	want := PassAtK(n, c, k)
	rng := rand.New(rand.NewSource(5))
	trials := 200000
	hits := 0
	for tr := 0; tr < trials; tr++ {
		perm := rng.Perm(n)
		ok := false
		for _, idx := range perm[:k] {
			if idx < c {
				ok = true
				break
			}
		}
		if ok {
			hits++
		}
	}
	got := float64(hits) / float64(trials)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("monte carlo %f vs closed form %f", got, want)
	}
}

func TestPassAtKFromCell(t *testing.T) {
	st := CellStats{Samples: 10, Compiled: 8, Passed: 3}
	if got := PassAtKFromCell(st, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("pass@1 = %f", got)
	}
}
