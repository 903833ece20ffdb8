package vnum

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// FromBitString parses a string of 0/1/x/z/_ characters (MSB first), e.g.
// "10xz". It panics on other characters.
func FromBitString(s string) Value {
	var bits []Bit
	for _, r := range s {
		switch r {
		case '0':
			bits = append(bits, B0)
		case '1':
			bits = append(bits, B1)
		case 'x', 'X':
			bits = append(bits, BX)
		case 'z', 'Z', '?':
			bits = append(bits, BZ)
		case '_':
		default:
			panic(fmt.Sprintf("vnum: bad bit char %q", r))
		}
	}
	if len(bits) == 0 {
		bits = []Bit{B0}
	}
	return FromBits(bits...)
}

func TestConstructorsAndBits(t *testing.T) {
	v := FromUint64(8, 0xA5)
	if got := v.BinString(); got != "10100101" {
		t.Fatalf("BinString = %q", got)
	}
	if v.Width() != 8 {
		t.Fatalf("Width = %d", v.Width())
	}
	if b := v.Bit(0); b != B1 {
		t.Fatalf("Bit(0) = %v", b)
	}
	if b := v.Bit(1); b != B0 {
		t.Fatalf("Bit(1) = %v", b)
	}
	if b := v.Bit(100); b != BX {
		t.Fatalf("out-of-range bit = %v", b)
	}
}

func TestFillConstructors(t *testing.T) {
	if !AllX(5).Equal(FromBitString("xxxxx")) {
		t.Error("AllX mismatch")
	}
	if !AllZ(3).Equal(FromBitString("zzz")) {
		t.Error("AllZ mismatch")
	}
	if !Zero(4).Equal(FromBitString("0000")) {
		t.Error("Zero mismatch")
	}
	if !New(2, B1).Equal(FromBitString("11")) {
		t.Error("New fill-1 mismatch")
	}
}

func TestFromInt64Negative(t *testing.T) {
	v := FromInt64(8, -1)
	if got := v.BinString(); got != "11111111" {
		t.Fatalf("FromInt64(8,-1) = %s", got)
	}
	i, ok := v.Int64()
	if !ok || i != -1 {
		t.Fatalf("Int64 = %d, %v", i, ok)
	}
	v = FromInt64(8, -128)
	if i, _ := v.Int64(); i != -128 {
		t.Fatalf("Int64(-128) = %d", i)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, u := range []uint64{0, 1, 42, 255, 1 << 40, ^uint64(0)} {
		v := FromUint64(64, u)
		got, ok := v.Uint64()
		if !ok || got != u {
			t.Errorf("round trip %d -> %d, %v", u, got, ok)
		}
	}
}

func TestTruncationOnWidth(t *testing.T) {
	v := FromUint64(4, 0xFF)
	if got, _ := v.Uint64(); got != 0xF {
		t.Fatalf("truncated = %d", got)
	}
}

func TestResizeZeroExtend(t *testing.T) {
	v := FromUint64(4, 0b1010)
	w := v.Resize(8)
	if got := w.BinString(); got != "00001010" {
		t.Fatalf("zero extend = %s", got)
	}
	n := w.Resize(3)
	if got := n.BinString(); got != "010" {
		t.Fatalf("truncate = %s", got)
	}
}

func TestResizeSignExtend(t *testing.T) {
	v := FromUint64(4, 0b1010).AsSigned()
	w := v.Resize(8)
	if got := w.BinString(); got != "11111010" {
		t.Fatalf("sign extend = %s", got)
	}
	// x sign bit extends as x
	xv := FromBitString("x01").AsSigned()
	if got := xv.Resize(5).BinString(); got != "xxx01" {
		t.Fatalf("x extend = %s", got)
	}
}

func TestConcatReplicateSlice(t *testing.T) {
	a := FromBitString("10")
	b := FromBitString("011")
	c := Concat(a, b)
	if got := c.BinString(); got != "10011" {
		t.Fatalf("concat = %s", got)
	}
	r := Replicate(3, FromBitString("01"))
	if got := r.BinString(); got != "010101" {
		t.Fatalf("replicate = %s", got)
	}
	s := c.Slice(3, 1)
	if got := s.BinString(); got != "001" {
		t.Fatalf("slice = %s", got)
	}
}

func TestKnownPredicates(t *testing.T) {
	if !FromUint64(8, 3).IsKnown() {
		t.Error("known value reported unknown")
	}
	if FromBitString("1x0").IsKnown() {
		t.Error("x value reported known")
	}
	if FromBitString("1z0").IsKnown() {
		t.Error("z value reported known")
	}
	if !Zero(9).IsZero() {
		t.Error("IsZero false negative")
	}
	if FromBitString("x").IsZero() {
		t.Error("x IsZero")
	}
}

func TestFormatting(t *testing.T) {
	v := FromUint64(12, 0xABC)
	if got := v.HexString(); got != "abc" {
		t.Errorf("hex = %s", got)
	}
	if got := v.DecString(); got != "2748" {
		t.Errorf("dec = %s", got)
	}
	if got := FromBitString("1x10").HexString(); got != "X" {
		t.Errorf("mixed hex = %s", got)
	}
	if got := FromBitString("xxxx").HexString(); got != "x" {
		t.Errorf("all-x hex = %s", got)
	}
	if got := FromBitString("1x10").DecString(); got != "x" {
		t.Errorf("unknown dec = %s", got)
	}
	if got := FromBitString("zzz").DecString(); got != "z" {
		t.Errorf("all-z dec = %s", got)
	}
	if got := FromInt64(8, -3).DecString(); got != "-3" {
		t.Errorf("signed dec = %s", got)
	}
	if got := FromUint64(4, 9).String(); got != "4'b1001" {
		t.Errorf("String = %s", got)
	}
}

func TestWideDecString(t *testing.T) {
	// 2^80 = 1208925819614629174706176
	v := Zero(81).WithBit(80, B1)
	if got := v.DecString(); got != "1208925819614629174706176" {
		t.Fatalf("wide dec = %s", got)
	}
}

func TestWithBitDoesNotMutate(t *testing.T) {
	v := Zero(4)
	w := v.WithBit(2, B1)
	if !v.Equal(Zero(4)) {
		t.Error("WithBit mutated receiver")
	}
	if got := w.BinString(); got != "0100" {
		t.Errorf("WithBit = %s", got)
	}
}

func TestQuickResizeRoundTrip(t *testing.T) {
	f := func(u uint64, extra uint8) bool {
		w := 64
		v := FromUint64(w, u)
		big := v.Resize(w + int(extra%64) + 1)
		back := big.Resize(w)
		return back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickConcatWidth(t *testing.T) {
	f := func(a, b uint16) bool {
		va := FromUint64(16, uint64(a))
		vb := FromUint64(16, uint64(b))
		c := Concat(va, vb)
		hi, _ := c.Slice(31, 16).Uint64()
		lo, _ := c.Slice(15, 0).Uint64()
		return c.Width() == 32 && hi == uint64(a) && lo == uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBitStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(130)
		v := Zero(w)
		for j := 0; j < w; j++ {
			v = v.WithBit(j, Bit(rng.Intn(4)))
		}
		if got := FromBitString(v.BinString()); !got.Equal(v) {
			t.Fatalf("round trip failed for %s", v.BinString())
		}
	}
}
