package vnum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Algebraic property tests over the four-state vector algebra.

func randValue(rng *rand.Rand, w int) Value {
	v := Zero(w)
	for i := 0; i < w; i++ {
		v = v.WithBit(i, Bit(rng.Intn(4)))
	}
	return v
}

func randKnown(rng *rand.Rand, w int) Value {
	v := Zero(w)
	for i := 0; i < w; i++ {
		v = v.WithBit(i, Bit(rng.Intn(2)))
	}
	return v
}

func TestPropMulCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(150)
		a, b := randKnown(rng, w), randKnown(rng, w)
		if !Mul(a, b).Equal(Mul(b, a)) {
			t.Fatalf("mul not commutative at width %d", w)
		}
	}
}

func TestPropMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(100)
		a, b, c := randKnown(rng, w), randKnown(rng, w), randKnown(rng, w)
		l := Mul(a, Add(b, c))
		r := Add(Mul(a, b), Mul(a, c))
		if !l.Equal(r) {
			t.Fatalf("distribution failed at width %d", w)
		}
	}
}

func TestPropConcatSliceInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		wa := 1 + rng.Intn(70)
		wb := 1 + rng.Intn(70)
		a, b := randValue(rng, wa), randValue(rng, wb)
		c := Concat(a, b)
		if got := c.Slice(wa+wb-1, wb); !got.Equal(a) {
			t.Fatalf("high slice mismatch: %s vs %s", got, a)
		}
		if got := c.Slice(wb-1, 0); !got.Equal(b) {
			t.Fatalf("low slice mismatch: %s vs %s", got, b)
		}
	}
}

func TestPropShiftInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		w := 8 + rng.Intn(100)
		sh := rng.Intn(w)
		a := randKnown(rng, w)
		shifted := Shr(Shl(a, FromUint64(16, uint64(sh))), FromUint64(16, uint64(sh)))
		// low w-sh bits survive the round trip
		if !shifted.Slice(w-sh-1, 0).Equal(a.Slice(w-sh-1, 0)) {
			t.Fatalf("shift round trip lost low bits (w=%d sh=%d)", w, sh)
		}
	}
}

func TestPropNotInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(130)
		a := randKnown(rng, w)
		if !Not(Not(a)).Equal(a) {
			t.Fatal("~~a != a")
		}
	}
}

func TestPropNegIsSubFromZero(t *testing.T) {
	f := func(u uint64) bool {
		a := FromUint64(64, u)
		return Neg(a).Equal(Sub(Zero(64), a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropXPoisonsArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 100; i++ {
		w := 2 + rng.Intn(60)
		a := randKnown(rng, w).WithBit(rng.Intn(w), BX)
		b := randKnown(rng, w)
		for _, op := range []func(Value, Value) Value{Add, Sub, Mul, Div, Mod} {
			if op(a, b).IsKnown() {
				t.Fatal("x operand produced known arithmetic result")
			}
		}
	}
}

func TestPropBitwiseNeverInventsKnowledge(t *testing.T) {
	// an output bit may be known even with unknown inputs (0&x=0) but a
	// known output bit must be consistent with every resolution of x/z
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 100; i++ {
		w := 1 + rng.Intn(40)
		a, b := randValue(rng, w), randValue(rng, w)
		out := And(a, b)
		for bit := 0; bit < w; bit++ {
			ob := out.Bit(bit)
			if !ob.IsKnown() {
				continue
			}
			// try all resolutions of this bit position
			for _, ra := range resolutions(a.Bit(bit)) {
				for _, rb := range resolutions(b.Bit(bit)) {
					want := B0
					if ra == B1 && rb == B1 {
						want = B1
					}
					if want != ob {
						t.Fatalf("bit %d: and(%v,%v) resolved to %v but reported %v",
							bit, a.Bit(bit), b.Bit(bit), want, ob)
					}
				}
			}
		}
	}
}

func resolutions(b Bit) []Bit {
	if b.IsKnown() {
		return []Bit{b}
	}
	return []Bit{B0, B1}
}

func TestPropResizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(120)
		a := randValue(rng, w)
		if !a.Resize(w).Equal(a) {
			t.Fatal("resize to same width changed value")
		}
	}
}
