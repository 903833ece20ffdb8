package vnum

import "math/bits"

// effSigned reports whether a binary operation over x and y uses signed
// arithmetic: per IEEE 1364 the result is signed only if both operands are.
func effSigned(x, y Value) bool { return x.signed && y.signed }

// ctxWidth returns the self-determined result width for a binary
// arithmetic/bitwise operation: max of the operand widths.
func ctxWidth(x, y Value) int {
	if x.width > y.width {
		return x.width
	}
	return y.width
}

// extend2 resizes both operands to the common context width with the
// effective signedness applied before extension. When the operands already
// share a width and signedness — the steady state for compiled expression
// plans, whose operands are pre-extended at plan-construction time — it
// returns them untouched: Values are immutable, so skipping the two Resize
// clones is safe.
func extend2(x, y Value) (Value, Value, int, bool) {
	if x.width == y.width && x.signed == y.signed {
		return x, y, x.width, x.signed
	}
	s := effSigned(x, y)
	w := ctxWidth(x, y)
	xr, yr := x, y
	xr.signed, yr.signed = s, s
	xr = xr.Resize(w)
	yr = yr.Resize(w)
	return xr, yr, w, s
}

// presized reports whether x and y satisfy the presized-operand contract:
// same width and same signedness, so no extension is needed.
func presized(x, y Value) bool {
	return x.width == y.width && x.signed == y.signed
}

// Add returns x + y at the common context width.
func Add(x, y Value) Value {
	xr, yr, w, s := extend2(x, y)
	return addCore(xr, yr, w, s)
}

// AddPresized returns x + y for operands already extended to the same width
// and signedness (the compiled-plan contract); it skips the extend2 width
// and signedness reconciliation. Mismatched operands fall back to Add.
func AddPresized(x, y Value) Value {
	if !presized(x, y) {
		return Add(x, y)
	}
	return addCore(x, y, x.width, x.signed)
}

func addCore(xr, yr Value, w int, s bool) Value {
	if !xr.IsKnown() || !yr.IsKnown() {
		r := AllX(w)
		r.signed = s
		return r
	}
	out := newVal(w)
	out.signed = s
	if out.wide == nil {
		out.a0 = xr.a0 + yr.a0
	} else {
		var carry uint64
		for i := 0; i < out.nwords(); i++ {
			sum, c1 := bits.Add64(xr.aw(i), yr.aw(i), carry)
			out.setaw(i, sum)
			carry = c1
		}
	}
	out.normalize()
	return out
}

// Sub returns x - y at the common context width.
func Sub(x, y Value) Value {
	xr, yr, w, s := extend2(x, y)
	return subCore(xr, yr, w, s)
}

// SubPresized returns x - y under the presized-operand contract.
func SubPresized(x, y Value) Value {
	if !presized(x, y) {
		return Sub(x, y)
	}
	return subCore(x, y, x.width, x.signed)
}

func subCore(xr, yr Value, w int, s bool) Value {
	if !xr.IsKnown() || !yr.IsKnown() {
		r := AllX(w)
		r.signed = s
		return r
	}
	out := newVal(w)
	out.signed = s
	if out.wide == nil {
		out.a0 = xr.a0 - yr.a0
	} else {
		var borrow uint64
		for i := 0; i < out.nwords(); i++ {
			d, b1 := bits.Sub64(xr.aw(i), yr.aw(i), borrow)
			out.setaw(i, d)
			borrow = b1
		}
	}
	out.normalize()
	return out
}

// Neg returns -x (two's complement) at x's width.
func Neg(x Value) Value {
	z := Zero(x.width)
	z.signed = x.signed
	return Sub(z, x)
}

// Mul returns x * y at the common context width.
func Mul(x, y Value) Value {
	xr, yr, w, s := extend2(x, y)
	return mulCore(xr, yr, w, s)
}

// MulPresized returns x * y under the presized-operand contract.
func MulPresized(x, y Value) Value {
	if !presized(x, y) {
		return Mul(x, y)
	}
	return mulCore(x, y, x.width, x.signed)
}

func mulCore(xr, yr Value, w int, s bool) Value {
	if !xr.IsKnown() || !yr.IsKnown() {
		r := AllX(w)
		r.signed = s
		return r
	}
	out := newVal(w)
	out.signed = s
	if out.wide == nil {
		out.a0 = xr.a0 * yr.a0
		out.normalize()
		return out
	}
	// Schoolbook multiply, truncated to w bits.
	n := out.nwords()
	for i := 0; i < n; i++ {
		var carry uint64
		for j := 0; i+j < n; j++ {
			hi, lo := bits.Mul64(xr.aw(i), yr.aw(j))
			var acc, c1, c2 uint64
			acc, c1 = bits.Add64(out.aw(i+j), lo, 0)
			acc, c2 = bits.Add64(acc, carry, 0)
			out.setaw(i+j, acc)
			carry = hi + c1 + c2
		}
	}
	out.normalize()
	return out
}

// absU64 interprets v (already extended to w bits) as a magnitude for signed
// division; it reports the magnitude and sign. Only defined for w <= 64.
func absU64(v Value, s bool) (mag uint64, neg bool) {
	u := v.aw(0)
	if s && v.width <= 64 && v.width > 0 && u&(1<<uint(v.width-1)) != 0 {
		if v.width < 64 {
			u |= ^uint64(0) << uint(v.width)
		}
		return -u, true
	}
	return u, false
}

// Div returns x / y. Division by zero or unknown operands yield all-x.
// Operands wider than 64 bits are supported only when their significant
// bits fit in 64; otherwise the result is x (documented subset limit).
func Div(x, y Value) Value {
	return divmod(x, y, true)
}

// Mod returns x % y with the sign of x, per the LRM.
func Mod(x, y Value) Value {
	return divmod(x, y, false)
}

func divmod(x, y Value, wantQuot bool) Value {
	xr, yr, w, s := extend2(x, y)
	bad := func() Value {
		r := AllX(w)
		r.signed = s
		return r
	}
	if !xr.IsKnown() || !yr.IsKnown() {
		return bad()
	}
	xu, xok := xr.AsUnsigned().Uint64()
	yu, yok := yr.AsUnsigned().Uint64()
	if !xok || !yok {
		return bad()
	}
	if s {
		xm, xneg := absU64(xr, true)
		ym, yneg := absU64(yr, true)
		if ym == 0 {
			return bad()
		}
		q := xm / ym
		r := xm % ym
		var res uint64
		if wantQuot {
			res = q
			if xneg != yneg {
				res = -res
			}
		} else {
			res = r
			if xneg {
				res = -res
			}
		}
		out := FromUint64(w, res)
		out.signed = true
		return out
	}
	if yu == 0 {
		return bad()
	}
	var res uint64
	if wantQuot {
		res = xu / yu
	} else {
		res = xu % yu
	}
	return FromUint64(w, res)
}

// Pow returns x ** y at x's width, following the LRM power-operator value
// table. Unknown operands (or an exponent too wide for 64 bits) yield all-x
// carrying x's signedness. A negative exponent — a signed y whose value is
// below zero; the raw bits are NOT a huge positive count — resolves by the
// base's value: 0 ** negative is all-x (division by zero), 1 ** negative is
// 1, (-1) ** negative is ±1 by exponent parity, and any other base
// truncates to 0.
func Pow(x, y Value) Value {
	w := x.width
	bad := AllX(w)
	bad.signed = x.signed
	if !x.IsKnown() || !y.IsKnown() {
		return bad
	}
	if y.signed {
		if yi, ok := y.Int64(); ok && yi < 0 {
			switch {
			case x.IsZero():
				return bad
			case isPlusOne(x):
				out := FromUint64(w, 1)
				out.signed = x.signed
				return out
			case x.signed && isAllOnes(x): // base -1
				if yi&1 != 0 {
					return FromInt64(w, -1)
				}
				out := FromUint64(w, 1)
				out.signed = true
				return out
			default: // |base| > 1: magnitude shrinks below 1, truncates to 0
				out := Zero(w)
				out.signed = x.signed
				return out
			}
		}
	}
	exp, ok := y.Uint64()
	if !ok {
		return bad
	}
	result := FromUint64(w, 1)
	result.signed = x.signed
	base := x
	for exp > 0 {
		if exp&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		exp >>= 1
	}
	return result.Resize(w)
}

// isPlusOne reports whether v is the known value +1. A one-bit signed 1 is
// -1, not +1, and is excluded.
func isPlusOne(v Value) bool {
	u, ok := v.Uint64()
	return ok && u == 1 && !(v.signed && v.width == 1)
}

// isAllOnes reports whether every bit of v is a known 1 (two's-complement
// -1 at any width).
func isAllOnes(v Value) bool {
	if !v.IsKnown() {
		return false
	}
	for i := 0; i < v.nwords(); i++ {
		want := ^uint64(0)
		if i == v.nwords()-1 {
			if rem := uint(v.width % 64); rem != 0 {
				want = (uint64(1) << rem) - 1
			}
		}
		if v.aw(i) != want {
			return false
		}
	}
	return true
}

// bitwise tables -------------------------------------------------------

func andBit(p, q Bit) Bit {
	if p == B0 || q == B0 {
		return B0
	}
	if p == B1 && q == B1 {
		return B1
	}
	return BX
}

func orBit(p, q Bit) Bit {
	if p == B1 || q == B1 {
		return B1
	}
	if p == B0 && q == B0 {
		return B0
	}
	return BX
}

func xorBit(p, q Bit) Bit {
	if !p.IsKnown() || !q.IsKnown() {
		return BX
	}
	if p != q {
		return B1
	}
	return B0
}

func notBit(p Bit) Bit {
	switch p {
	case B0:
		return B1
	case B1:
		return B0
	default:
		return BX
	}
}

func bitwise2(x, y Value, f func(Bit, Bit) Bit) Value {
	xr, yr, w, s := extend2(x, y)
	return bitwiseCore(xr, yr, w, s, f)
}

func bitwiseCore(xr, yr Value, w int, s bool, f func(Bit, Bit) Bit) Value {
	out := Zero(w)
	out.signed = s
	for i := 0; i < w; i++ {
		out.setBit(i, f(xr.Bit(i), yr.Bit(i)))
	}
	return out
}

// bitwisePresized applies f under the presized-operand contract.
func bitwisePresized(x, y Value, f func(Bit, Bit) Bit) Value {
	if !presized(x, y) {
		return bitwise2(x, y, f)
	}
	return bitwiseCore(x, y, x.width, x.signed, f)
}

// And returns the bitwise AND of x and y.
func And(x, y Value) Value { return bitwise2(x, y, andBit) }

// AndPresized returns x & y under the presized-operand contract.
func AndPresized(x, y Value) Value { return bitwisePresized(x, y, andBit) }

// Or returns the bitwise OR of x and y.
func Or(x, y Value) Value { return bitwise2(x, y, orBit) }

// OrPresized returns x | y under the presized-operand contract.
func OrPresized(x, y Value) Value { return bitwisePresized(x, y, orBit) }

// Xor returns the bitwise XOR of x and y.
func Xor(x, y Value) Value { return bitwise2(x, y, xorBit) }

// XorPresized returns x ^ y under the presized-operand contract.
func XorPresized(x, y Value) Value { return bitwisePresized(x, y, xorBit) }

func xnorBit(p, q Bit) Bit { return notBit(xorBit(p, q)) }

// Xnor returns the bitwise XNOR of x and y.
func Xnor(x, y Value) Value { return bitwise2(x, y, xnorBit) }

// XnorPresized returns x ~^ y under the presized-operand contract.
func XnorPresized(x, y Value) Value { return bitwisePresized(x, y, xnorBit) }

// Not returns the bitwise complement of x.
func Not(x Value) Value {
	out := Zero(x.width)
	out.signed = x.signed
	for i := 0; i < x.width; i++ {
		out.setBit(i, notBit(x.Bit(i)))
	}
	return out
}

// reductions -----------------------------------------------------------

func reduce(x Value, f func(Bit, Bit) Bit) Value {
	acc := x.Bit(0)
	for i := 1; i < x.width; i++ {
		acc = f(acc, x.Bit(i))
	}
	out := Zero(1)
	out.setBit(0, acc)
	return out
}

// RedAnd returns the unary &x reduction.
func RedAnd(x Value) Value { return reduce(x, andBit) }

// RedOr returns the unary |x reduction.
func RedOr(x Value) Value { return reduce(x, orBit) }

// RedXor returns the unary ^x reduction.
func RedXor(x Value) Value { return reduce(x, xorBit) }

// RedNand returns the unary ~&x reduction.
func RedNand(x Value) Value { return Not(RedAnd(x)) }

// RedNor returns the unary ~|x reduction.
func RedNor(x Value) Value { return Not(RedOr(x)) }

// RedXnor returns the unary ~^x reduction.
func RedXnor(x Value) Value { return Not(RedXor(x)) }

// logical --------------------------------------------------------------

// Truth returns the Verilog truthiness of x: B1 if any bit is 1, B0 if all
// bits are known zero, BX otherwise.
func (v Value) Truth() Bit {
	sawUnknown := false
	for i := 0; i < v.width; i++ {
		switch v.Bit(i) {
		case B1:
			return B1
		case BX, BZ:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return BX
	}
	return B0
}

// IsTrue reports whether the value is definitely true (truthiness 1).
func (v Value) IsTrue() bool { return v.Truth() == B1 }

func bitToVal(b Bit) Value {
	out := Zero(1)
	out.setBit(0, b)
	return out
}

// LogAnd returns x && y (one-bit result).
func LogAnd(x, y Value) Value { return bitToVal(andBit(x.Truth(), y.Truth())) }

// LogOr returns x || y (one-bit result).
func LogOr(x, y Value) Value { return bitToVal(orBit(x.Truth(), y.Truth())) }

// LogNot returns !x (one-bit result).
func LogNot(x Value) Value { return bitToVal(notBit(x.Truth())) }

// comparisons ----------------------------------------------------------

// Eq returns x == y: one-bit x if either operand has unknown bits,
// otherwise 1/0.
func Eq(x, y Value) Value {
	xr, yr, _, _ := extend2(x, y)
	if !xr.IsKnown() || !yr.IsKnown() {
		return bitToVal(BX)
	}
	for i := 0; i < xr.nwords(); i++ {
		if xr.aw(i) != yr.aw(i) {
			return Bool(false)
		}
	}
	return Bool(true)
}

// Neq returns x != y.
func Neq(x, y Value) Value { return LogNot(Eq(x, y)) }

// CaseEq returns x === y: exact four-state match, always 0/1.
func CaseEq(x, y Value) Value {
	xr, yr, _, _ := extend2(x, y)
	for i := 0; i < xr.nwords(); i++ {
		if xr.aw(i) != yr.aw(i) || xr.bw(i) != yr.bw(i) {
			return Bool(false)
		}
	}
	return Bool(true)
}

// CaseNeq returns x !== y.
func CaseNeq(x, y Value) Value { return LogNot(CaseEq(x, y)) }

// cmpKnown compares extended known operands: -1, 0, or +1.
func cmpKnown(x, y Value, signed bool) int {
	if signed {
		xs := x.Bit(x.width - 1)
		ys := y.Bit(y.width - 1)
		if xs == B1 && ys == B0 {
			return -1
		}
		if xs == B0 && ys == B1 {
			return 1
		}
	}
	for i := x.nwords() - 1; i >= 0; i-- {
		if x.aw(i) < y.aw(i) {
			return -1
		}
		if x.aw(i) > y.aw(i) {
			return 1
		}
	}
	return 0
}

func relational(x, y Value, pass func(int) bool) Value {
	xr, yr, _, s := extend2(x, y)
	if !xr.IsKnown() || !yr.IsKnown() {
		return bitToVal(BX)
	}
	return Bool(pass(cmpKnown(xr, yr, s)))
}

// Lt returns x < y.
func Lt(x, y Value) Value { return relational(x, y, func(c int) bool { return c < 0 }) }

// Le returns x <= y.
func Le(x, y Value) Value { return relational(x, y, func(c int) bool { return c <= 0 }) }

// Gt returns x > y.
func Gt(x, y Value) Value { return relational(x, y, func(c int) bool { return c > 0 }) }

// Ge returns x >= y.
func Ge(x, y Value) Value { return relational(x, y, func(c int) bool { return c >= 0 }) }

// shifts ----------------------------------------------------------------

// Shl returns x << y at x's width.
func Shl(x, y Value) Value {
	n, ok := y.Uint64()
	if !ok {
		r := AllX(x.width)
		r.signed = x.signed
		return r
	}
	out := Zero(x.width)
	out.signed = x.signed
	if n >= uint64(x.width) {
		return out
	}
	for i := int(n); i < x.width; i++ {
		out.setBit(i, x.Bit(i-int(n)))
	}
	return out
}

// Shr returns x >> y (logical) at x's width.
func Shr(x, y Value) Value {
	n, ok := y.Uint64()
	if !ok {
		r := AllX(x.width)
		r.signed = x.signed
		return r
	}
	out := Zero(x.width)
	out.signed = x.signed
	if n >= uint64(x.width) {
		return out
	}
	for i := 0; i < x.width-int(n); i++ {
		out.setBit(i, x.Bit(i+int(n)))
	}
	return out
}

// Sshr returns x >>> y: arithmetic shift when x is signed, logical
// otherwise (per the LRM, >>> is arithmetic only in signed context).
func Sshr(x, y Value) Value {
	if !x.signed {
		return Shr(x, y)
	}
	n, ok := y.Uint64()
	if !ok {
		r := AllX(x.width)
		r.signed = true
		return r
	}
	sign := x.Bit(x.width - 1)
	out := Zero(x.width)
	out.signed = true
	sh := int(n)
	if n >= uint64(x.width) {
		sh = x.width
	}
	for i := 0; i < x.width-sh; i++ {
		out.setBit(i, x.Bit(i+sh))
	}
	for i := x.width - sh; i < x.width; i++ {
		out.setBit(i, sign)
	}
	return out
}

// TernaryMerge implements the LRM unknown-condition ?: merge at width w:
// bit positions where a and b agree on a known value keep that value, every
// other position becomes x. The result is unsigned; callers apply context
// signedness.
func TernaryMerge(a, b Value, w int) Value {
	out := Zero(w)
	for i := 0; i < w; i++ {
		if a.Bit(i) == b.Bit(i) && a.Bit(i).IsKnown() {
			out.setBit(i, a.Bit(i))
		} else {
			out.setBit(i, BX)
		}
	}
	return out
}
