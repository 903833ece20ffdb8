package vnum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func u64(t *testing.T, v Value) uint64 {
	t.Helper()
	u, ok := v.Uint64()
	if !ok {
		t.Fatalf("value %s not a known uint64", v)
	}
	return u
}

func TestAddBasic(t *testing.T) {
	got := Add(FromUint64(8, 200), FromUint64(8, 100))
	if u := u64(t, got); u != 44 { // wraps mod 256
		t.Fatalf("200+100 (8 bit) = %d", u)
	}
	if got.Width() != 8 {
		t.Fatalf("width = %d", got.Width())
	}
}

func TestAddUnknownPoisons(t *testing.T) {
	got := Add(FromBitString("1x"), FromUint64(2, 1))
	if got.IsKnown() {
		t.Fatalf("x + 1 should be unknown, got %s", got)
	}
}

func TestSubNegWrap(t *testing.T) {
	got := Sub(FromUint64(8, 5), FromUint64(8, 10))
	if u := u64(t, got); u != 251 {
		t.Fatalf("5-10 = %d", u)
	}
	n := Neg(FromUint64(8, 1))
	if u := u64(t, n); u != 255 {
		t.Fatalf("-1 = %d", u)
	}
}

func TestMulWide(t *testing.T) {
	// (2^40)*(2^40) truncated to 128 bits = 2^80
	a := Zero(128).WithBit(40, B1)
	b := Zero(128).WithBit(40, B1)
	got := Mul(a, b)
	want := Zero(128).WithBit(80, B1)
	if !got.Equal(want) {
		t.Fatalf("2^40*2^40 = %s", got)
	}
}

func TestDivMod(t *testing.T) {
	if u := u64(t, Div(FromUint64(8, 42), FromUint64(8, 5))); u != 8 {
		t.Fatalf("42/5 = %d", u)
	}
	if u := u64(t, Mod(FromUint64(8, 42), FromUint64(8, 5))); u != 2 {
		t.Fatalf("42%%5 = %d", u)
	}
	if Div(FromUint64(8, 1), Zero(8)).IsKnown() {
		t.Error("div by zero should be x")
	}
}

func TestSignedDivMod(t *testing.T) {
	a := FromInt64(8, -7)
	b := FromInt64(8, 2)
	q := Div(a, b)
	if i, _ := q.Int64(); i != -3 {
		t.Fatalf("-7/2 = %d", i)
	}
	r := Mod(a, b)
	if i, _ := r.Int64(); i != -1 {
		t.Fatalf("-7%%2 = %d", i)
	}
}

func TestSignedAddMixedWidth(t *testing.T) {
	// signed 4-bit -2 plus signed 8-bit 1 → sign-extended to 8 bits
	a := FromInt64(4, -2)
	b := FromInt64(8, 1)
	got := Add(a, b)
	if i, _ := got.Int64(); i != -1 {
		t.Fatalf("-2+1 = %d", i)
	}
}

func TestMixedSignednessIsUnsigned(t *testing.T) {
	// one unsigned operand makes the operation unsigned: -1 (4 bits) is 15
	a := FromInt64(4, -1)
	b := FromUint64(8, 0)
	got := Add(a, b)
	if u := u64(t, got); u != 15 {
		t.Fatalf("unsigned ext = %d", u)
	}
}

func TestBitwiseTables(t *testing.T) {
	x := FromBitString("01xz")
	y := FromBitString("1111")
	if got := And(x, y).BinString(); got != "01xx" {
		t.Errorf("and = %s", got)
	}
	if got := Or(x, y).BinString(); got != "1111" {
		t.Errorf("or = %s", got)
	}
	z := FromBitString("0000")
	if got := And(x, z).BinString(); got != "0000" {
		t.Errorf("and0 = %s", got)
	}
	if got := Or(x, z).BinString(); got != "01xx" {
		t.Errorf("or0 = %s", got)
	}
	if got := Xor(x, y).BinString(); got != "10xx" {
		t.Errorf("xor = %s", got)
	}
	if got := Not(x).BinString(); got != "10xx" {
		t.Errorf("not = %s", got)
	}
	if got := Xnor(x, y).BinString(); got != "01xx" {
		t.Errorf("xnor = %s", got)
	}
}

func TestReductions(t *testing.T) {
	if got := RedAnd(FromBitString("111")); !got.IsTrue() {
		t.Error("&111 != 1")
	}
	if got := RedAnd(FromBitString("1x1")); got.Truth() != BX {
		t.Error("&1x1 != x")
	}
	if got := RedAnd(FromBitString("0x1")); got.Truth() != B0 {
		t.Error("&0x1 != 0")
	}
	if got := RedOr(FromBitString("0x0")); got.Truth() != BX {
		t.Error("|0x0 != x")
	}
	if got := RedOr(FromBitString("1x0")); !got.IsTrue() {
		t.Error("|1x0 != 1")
	}
	if got := RedXor(FromBitString("1101")); !got.IsTrue() {
		t.Error("^1101 != 1")
	}
	if got := RedXnor(FromBitString("1101")); got.IsTrue() {
		t.Error("~^1101 != 0")
	}
	if got := RedNand(FromBitString("11")); got.IsTrue() {
		t.Error("~&11 != 0")
	}
	if got := RedNor(FromBitString("00")); !got.IsTrue() {
		t.Error("~|00 != 1")
	}
}

func TestLogicalOps(t *testing.T) {
	tr := FromUint64(4, 2)
	fa := Zero(4)
	un := FromBitString("x0")
	if !LogAnd(tr, tr).IsTrue() {
		t.Error("t&&t")
	}
	if LogAnd(tr, fa).IsTrue() {
		t.Error("t&&f")
	}
	if LogAnd(fa, un).Truth() != B0 {
		t.Error("f&&x should be 0")
	}
	if LogAnd(tr, un).Truth() != BX {
		t.Error("t&&x should be x")
	}
	if LogOr(tr, un).Truth() != B1 {
		t.Error("t||x should be 1")
	}
	if LogOr(fa, un).Truth() != BX {
		t.Error("f||x should be x")
	}
	if LogNot(fa).Truth() != B1 {
		t.Error("!f")
	}
}

func TestEquality(t *testing.T) {
	a := FromUint64(4, 5)
	b := FromUint64(4, 5)
	c := FromUint64(4, 6)
	if !Eq(a, b).IsTrue() {
		t.Error("5==5")
	}
	if Eq(a, c).IsTrue() {
		t.Error("5==6")
	}
	if !Neq(a, c).IsTrue() {
		t.Error("5!=6")
	}
	x := FromBitString("x101")
	if Eq(x, a).Truth() != BX {
		t.Error("x==5 should be x")
	}
	if !CaseEq(x, x).IsTrue() {
		t.Error("x===x")
	}
	if CaseEq(x, FromBitString("z101")).IsTrue() {
		t.Error("x!==z")
	}
	if !CaseNeq(x, FromBitString("z101")).IsTrue() {
		t.Error("casneq")
	}
}

func TestRelational(t *testing.T) {
	if !Lt(FromUint64(8, 3), FromUint64(8, 9)).IsTrue() {
		t.Error("3<9")
	}
	if Lt(FromUint64(8, 9), FromUint64(8, 3)).IsTrue() {
		t.Error("9<3")
	}
	if !Ge(FromUint64(8, 9), FromUint64(8, 9)).IsTrue() {
		t.Error("9>=9")
	}
	// signed: -1 < 1
	if !Lt(FromInt64(8, -1), FromInt64(8, 1)).IsTrue() {
		t.Error("-1<1 signed")
	}
	// unsigned: 255 > 1
	if !Gt(FromUint64(8, 255), FromUint64(8, 1)).IsTrue() {
		t.Error("255>1 unsigned")
	}
	if Lt(FromBitString("x"), FromUint64(1, 0)).Truth() != BX {
		t.Error("x<0 should be x")
	}
}

func TestShifts(t *testing.T) {
	v := FromUint64(8, 0b0110_0001)
	if got := u64(t, Shl(v, FromUint64(3, 2))); got != 0b1000_0100 {
		t.Errorf("shl = %b", got)
	}
	if got := u64(t, Shr(v, FromUint64(3, 4))); got != 0b0110 {
		t.Errorf("shr = %b", got)
	}
	s := FromInt64(8, -64) // 1100_0000
	if got, _ := Sshr(s, FromUint64(3, 2)).Int64(); got != -16 {
		t.Errorf("sshr signed = %d", got)
	}
	// >>> on unsigned value is logical
	us := FromUint64(8, 0b1100_0000)
	if got := u64(t, Sshr(us, FromUint64(3, 2))); got != 0b0011_0000 {
		t.Errorf("sshr unsigned = %b", got)
	}
	if got := u64(t, Shl(v, FromUint64(8, 200))); got != 0 {
		t.Errorf("overshift = %d", got)
	}
	if Shl(v, FromBitString("x")).IsKnown() {
		t.Error("shift by x should be x")
	}
}

func TestPow(t *testing.T) {
	if got := u64(t, Pow(FromUint64(16, 3), FromUint64(16, 5))); got != 243 {
		t.Errorf("3**5 = %d", got)
	}
	if got := u64(t, Pow(FromUint64(16, 2), FromUint64(16, 0))); got != 1 {
		t.Errorf("2**0 = %d", got)
	}
}

// TestPowNegativeExponent pins the bugfix: a signed negative exponent used
// to be read as raw bits (all-ones = a huge positive count) and
// square-multiplied into garbage. The LRM value table applies instead.
func TestPowNegativeExponent(t *testing.T) {
	negOne := FromInt64(32, -1)
	negTwo := FromInt64(32, -2)
	negThree := FromInt64(32, -3)

	// |base| > 1: truncates to zero (2 ** -1 == 0, not 2^(2^64-1) bits of junk)
	if got := u64(t, Pow(FromInt64(16, 2), negOne)); got != 0 {
		t.Errorf("2 ** -1 = %d, want 0", got)
	}
	if got := u64(t, Pow(FromInt64(16, -4), negThree)); got != 0 {
		t.Errorf("(-4) ** -3 = %d, want 0", got)
	}
	// base 1: always 1
	if got := u64(t, Pow(FromInt64(16, 1), negThree)); got != 1 {
		t.Errorf("1 ** -3 = %d, want 1", got)
	}
	// base -1: parity of the exponent
	if got, _ := Pow(FromInt64(16, -1), negThree).Int64(); got != -1 {
		t.Errorf("(-1) ** -3 = %d, want -1", got)
	}
	if got, _ := Pow(FromInt64(16, -1), negTwo).Int64(); got != 1 {
		t.Errorf("(-1) ** -2 = %d, want 1", got)
	}
	// base 0: division by zero, all-x
	if r := Pow(FromInt64(16, 0), negOne); r.IsKnown() {
		t.Errorf("0 ** -1 = %v, want all-x", r)
	}
	// an unsigned all-ones exponent is still a plain huge count, not -1:
	// even powers of 3 truncated to 8 bits cycle, not the -1 path
	if got := u64(t, Pow(FromUint64(8, 1), FromUint64(8, 0xFF))); got != 1 {
		t.Errorf("1 ** 255 (unsigned) = %d, want 1", got)
	}
	// a 1-bit signed 1 is -1, not +1
	one1 := FromUint64(1, 1).AsSigned()
	if got := one1.BinString(); got != "1" {
		t.Fatalf("setup: %s", got)
	}
	if r := Pow(one1, negTwo); r.BinString() != "1" {
		t.Errorf("(1'sb1) ** -2 = %s, want 1 (the -1 even-parity case)", r.BinString())
	}
}

// TestPowUnknownKeepsSignedness pins the second half of the fix: the all-x
// early return used to drop the base's signedness.
func TestPowUnknownKeepsSignedness(t *testing.T) {
	x := AllX(8).AsSigned()
	if r := Pow(x, FromUint64(8, 2)); !r.Signed() {
		t.Error("x ** 2 with signed base lost the signed flag")
	}
	if r := Pow(FromInt64(8, 2), FromBitString("x")); !r.Signed() {
		t.Error("2 ** x with signed base lost the signed flag")
	}
	if r := Pow(FromUint64(8, 2), FromBitString("x")); r.Signed() {
		t.Error("unsigned base must stay unsigned on the all-x path")
	}
}

// TestPresizedOpsMatchGeneral pins the presized entry points: under the
// contract (equal width and signedness) they must equal the general ops,
// and they must fall back correctly when the contract is violated.
func TestPresizedOpsMatchGeneral(t *testing.T) {
	pairs := []struct {
		g, p func(a, b Value) Value
		name string
	}{
		{Add, AddPresized, "add"},
		{Sub, SubPresized, "sub"},
		{Mul, MulPresized, "mul"},
		{And, AndPresized, "and"},
		{Or, OrPresized, "or"},
		{Xor, XorPresized, "xor"},
		{Xnor, XnorPresized, "xnor"},
	}
	vals := []Value{
		FromUint64(16, 0xBEEF),
		FromInt64(16, -3).AsUnsigned(),
		FromBitString("10xz10xz10xz10xz"),
		FromUint64(16, 1),
	}
	for _, pr := range pairs {
		for _, a := range vals {
			for _, b := range vals {
				want, got := pr.g(a, b), pr.p(a, b)
				if !want.Equal(got) || want.Signed() != got.Signed() {
					t.Errorf("%s presized(%v, %v) = %v, general = %v", pr.name, a, b, got, want)
				}
				as, bs := a.AsSigned(), b.AsSigned()
				want, got = pr.g(as, bs), pr.p(as, bs)
				if !want.Equal(got) || want.Signed() != got.Signed() {
					t.Errorf("%s signed presized = %v, general = %v", pr.name, got, want)
				}
			}
		}
		// contract violation: mixed width and signedness falls back
		a, b := FromUint64(8, 200), FromInt64(16, -1)
		if want, got := pr.g(a, b), pr.p(a, b); !want.Equal(got) {
			t.Errorf("%s fallback = %v, general = %v", pr.name, got, want)
		}
	}
}

// Property tests against Go's native 64-bit arithmetic.

func TestQuickArithMatchesUint64(t *testing.T) {
	f := func(a, b uint64) bool {
		va, vb := FromUint64(64, a), FromUint64(64, b)
		if u, _ := Add(va, vb).Uint64(); u != a+b {
			return false
		}
		if u, _ := Sub(va, vb).Uint64(); u != a-b {
			return false
		}
		if u, _ := Mul(va, vb).Uint64(); u != a*b {
			return false
		}
		if b != 0 {
			if u, _ := Div(va, vb).Uint64(); u != a/b {
				return false
			}
			if u, _ := Mod(va, vb).Uint64(); u != a%b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBitwiseMatchesUint64(t *testing.T) {
	f := func(a, b uint64) bool {
		va, vb := FromUint64(64, a), FromUint64(64, b)
		ok := true
		if u, _ := And(va, vb).Uint64(); u != a&b {
			ok = false
		}
		if u, _ := Or(va, vb).Uint64(); u != a|b {
			ok = false
		}
		if u, _ := Xor(va, vb).Uint64(); u != a^b {
			ok = false
		}
		if u, _ := Not(va).Uint64(); u != ^a {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftsMatchUint64(t *testing.T) {
	f := func(a uint64, sh uint8) bool {
		s := uint64(sh % 64)
		va := FromUint64(64, a)
		vs := FromUint64(7, s)
		if u, _ := Shl(va, vs).Uint64(); u != a<<s {
			return false
		}
		if u, _ := Shr(va, vs).Uint64(); u != a>>s {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSignedRelationalMatchesInt64(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := FromInt64(64, a), FromInt64(64, b)
		return Lt(va, vb).IsTrue() == (a < b) &&
			Le(va, vb).IsTrue() == (a <= b) &&
			Gt(va, vb).IsTrue() == (a > b) &&
			Ge(va, vb).IsTrue() == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutesAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		w := 1 + rng.Intn(100)
		a := FromUint64(w, rng.Uint64())
		b := FromUint64(w, rng.Uint64())
		c := FromUint64(w, rng.Uint64())
		if !Add(a, b).Equal(Add(b, a)) {
			t.Fatal("add not commutative")
		}
		if !Add(Add(a, b), c).Equal(Add(a, Add(b, c))) {
			t.Fatal("add not associative")
		}
		if !Sub(Add(a, b), b).Equal(a) {
			t.Fatal("(a+b)-b != a")
		}
	}
}

func TestQuickDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		w := 1 + rng.Intn(80)
		a, b := Zero(w), Zero(w)
		for j := 0; j < w; j++ {
			a = a.WithBit(j, Bit(rng.Intn(4)))
			b = b.WithBit(j, Bit(rng.Intn(4)))
		}
		l := Not(And(a, b))
		r := Or(Not(a), Not(b))
		if !l.Equal(r) {
			t.Fatalf("De Morgan failed: a=%s b=%s", a, b)
		}
	}
}

func TestParseLiteral(t *testing.T) {
	cases := []struct {
		in   string
		bits string
	}{
		{"4'b1010", "1010"},
		{"8'hFF", "11111111"},
		{"8'hff", "11111111"},
		{"6'o17", "001111"},
		{"4'd9", "1001"},
		{"3'b1_0_1", "101"},
		{"4'bx", "xxxx"},
		{"4'bz1", "zzz1"},
		{"8'hx", "xxxxxxxx"},
		{"2'b01", "01"},
	}
	for _, c := range cases {
		v, err := ParseLiteral(c.in)
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if got := v.BinString(); got != c.bits {
			t.Errorf("%s = %s, want %s", c.in, got, c.bits)
		}
	}
}

func TestParseLiteralUnsizedDecimal(t *testing.T) {
	v, err := ParseLiteral("42")
	if err != nil {
		t.Fatal(err)
	}
	if v.Width() != 32 || !v.Signed() {
		t.Fatalf("unsized decimal: width=%d signed=%v", v.Width(), v.Signed())
	}
	if u, _ := v.Uint64(); u != 42 {
		t.Fatalf("value = %d", u)
	}
}

func TestParseLiteralSigned(t *testing.T) {
	v, err := ParseLiteral("8'sd255")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Signed() {
		t.Fatal("signed flag lost")
	}
	if i, _ := v.Int64(); i != -1 {
		t.Fatalf("8'sd255 as signed = %d", i)
	}
}

func TestParseLiteralErrors(t *testing.T) {
	for _, bad := range []string{"4'", "'q10", "4'b2", "x'b0", "8'h", "0'b0", "4'dz9"} {
		if _, err := ParseLiteral(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
