package vnum

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize pins the compact layout: a Value passes by value through
// every operator and plan closure, so growing it is a copy cost on every
// operation of the simulator's inner loop.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want <= 40", n)
	}
}

// The oracle renderers below are the per-bit, fmt-based implementations
// the word-at-a-time renderers replaced. They define the expected bytes.

func oracleBinString(v Value) string {
	var sb strings.Builder
	for i := v.width - 1; i >= 0; i-- {
		sb.WriteString(v.Bit(i).String())
	}
	return sb.String()
}

func oracleHexString(v Value) string {
	nibbles := (v.width + 3) / 4
	var sb strings.Builder
	for n := nibbles - 1; n >= 0; n-- {
		lo := n * 4
		hi := min(lo+3, v.width-1)
		allX, allZ, anyUnknown := true, true, false
		var d uint64
		for i := lo; i <= hi; i++ {
			switch v.Bit(i) {
			case B0:
				allX, allZ = false, false
			case B1:
				allX, allZ = false, false
				d |= 1 << uint(i-lo)
			case BX:
				allZ = false
				anyUnknown = true
			case BZ:
				allX = false
				anyUnknown = true
			}
		}
		switch {
		case anyUnknown && allX:
			sb.WriteByte('x')
		case anyUnknown && allZ:
			sb.WriteByte('z')
		case anyUnknown:
			sb.WriteByte('X')
		default:
			sb.WriteString(fmt.Sprintf("%x", d))
		}
	}
	return sb.String()
}

func oracleDecString(v Value) string {
	if !v.IsKnown() {
		all := true
		for i := 0; i < v.width; i++ {
			if v.Bit(i) != BZ {
				all = false
				break
			}
		}
		if all {
			return "z"
		}
		return "x"
	}
	if v.signed {
		if i, ok := v.Int64(); ok {
			return fmt.Sprintf("%d", i)
		}
	}
	if u, ok := v.Uint64(); ok {
		return fmt.Sprintf("%d", u)
	}
	var digits []byte
	cur := make([]uint64, v.nwords())
	for i := range cur {
		cur[i] = v.aw(i)
	}
	for {
		var rem uint64
		nonzero := false
		for i := len(cur) - 1; i >= 0; i-- {
			q, r := bits.Div64(rem, cur[i], 10)
			cur[i] = q
			rem = r
			if q != 0 {
				nonzero = true
			}
		}
		digits = append(digits, byte('0'+rem))
		if !nonzero {
			break
		}
	}
	for l, r := 0, len(digits)-1; l < r; l, r = l+1, r-1 {
		digits[l], digits[r] = digits[r], digits[l]
	}
	return string(digits)
}

// randomFourState draws a width-bit value under one of several shapes, so
// all-x, all-z, fully known, sparse-unknown and per-nibble mixes all
// occur often.
func randomFourState(rng *rand.Rand, width int) Value {
	bitsOf := make([]Bit, width)
	shape := rng.Intn(6)
	for i := range bitsOf {
		switch shape {
		case 0: // uniform four-state
			bitsOf[i] = Bit(rng.Intn(4))
		case 1: // fully known
			bitsOf[i] = Bit(rng.Intn(2))
		case 2: // mostly known, rare x/z
			if rng.Intn(16) == 0 {
				bitsOf[i] = Bit(2 + rng.Intn(2))
			} else {
				bitsOf[i] = Bit(rng.Intn(2))
			}
		case 3:
			bitsOf[i] = BX
		case 4:
			bitsOf[i] = BZ
		}
	}
	if shape == 5 { // per-nibble: known, all-x, all-z or mixed
		for lo := 0; lo < width; lo += 4 {
			kind := rng.Intn(4)
			for i := lo; i < lo+4 && i < width; i++ {
				switch kind {
				case 0:
					bitsOf[i] = Bit(rng.Intn(2))
				case 1:
					bitsOf[i] = BX
				case 2:
					bitsOf[i] = BZ
				default:
					bitsOf[i] = Bit(rng.Intn(4))
				}
			}
		}
	}
	// FromBits takes MSB first
	for l, r := 0, len(bitsOf)-1; l < r; l, r = l+1, r-1 {
		bitsOf[l], bitsOf[r] = bitsOf[r], bitsOf[l]
	}
	v := FromBits(bitsOf...)
	if rng.Intn(2) == 0 {
		v = v.AsSigned()
	}
	return v
}

// TestStringRenderingMatchesOracle compares BinString, HexString,
// DecString and String with the oracle renderers over random four-state
// values at widths 1-200, signed and unsigned.
func TestStringRenderingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(v Value) {
		t.Helper()
		if got, want := v.BinString(), oracleBinString(v); got != want {
			t.Fatalf("BinString(%d-bit %s) = %q, want %q", v.width, want, got, want)
		}
		if got, want := v.HexString(), oracleHexString(v); got != want {
			t.Fatalf("HexString(%d-bit %s) = %q, want %q", v.width, oracleBinString(v), got, want)
		}
		if got, want := v.DecString(), oracleDecString(v); got != want {
			t.Fatalf("DecString(%d-bit signed=%v %s) = %q, want %q", v.width, v.signed, oracleBinString(v), got, want)
		}
		if got, want := v.String(), fmt.Sprintf("%d'b%s", v.width, oracleBinString(v)); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	for trial := 0; trial < 12000; trial++ {
		check(randomFourState(rng, 1+rng.Intn(200)))
	}
	// fixed corners: the zero Value, word boundaries, negative extremes
	check(Value{})
	for _, w := range []int{1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 200} {
		check(AllX(w))
		check(AllZ(w))
		check(Zero(w))
		check(New(w, B1))
		check(New(w, B1).AsSigned())
		check(FromInt64(w, -1))
		check(FromUint64(w, 1).AsSigned())
	}
	check(FromInt64(64, -1<<63))
}
