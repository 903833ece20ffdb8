// Package vnum implements arbitrary-width four-state (0/1/x/z) Verilog
// vector values and the operator semantics defined by IEEE 1364-2005.
//
// A Value stores one aval/bval bit pair per vector bit, following the VPI
// encoding: (b=0,a=0)→0, (b=0,a=1)→1, (b=1,a=0)→z, (b=1,a=1)→x. Values are
// immutable from the caller's point of view: all operations return fresh
// Values and never alias operand storage.
//
// Values up to 64 bits wide — the overwhelming majority in the simulator's
// inner loop — store their planes inline in two uint64 fields, so
// constructing and operating on them performs no heap allocation. Wider
// values spill to one heap-allocated backing array behind a pointer.
package vnum

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Bit is the state of a single vector bit.
type Bit uint8

// The four Verilog scalar states.
const (
	B0 Bit = iota // logic zero
	B1            // logic one
	BX            // unknown
	BZ            // high impedance
)

// String returns the canonical lower-case character for the bit.
func (b Bit) String() string {
	switch b {
	case B0:
		return "0"
	case B1:
		return "1"
	case BX:
		return "x"
	default:
		return "z"
	}
}

// IsKnown reports whether the bit is 0 or 1.
func (b Bit) IsKnown() bool { return b == B0 || b == B1 }

// Value is an arbitrary-width four-state vector. The zero Value is a
// one-bit unknown (x); use the constructors for anything else.
//
// Representation: widths <= 64 keep the aval/bval planes in the inline
// a0/b0 words (wide stays nil); wider values keep them behind wide (LSB
// word first). Tail bits past the width are always masked to zero.
//
// A Value is 40 bytes with a single pointer word. Values pass and return
// by value through every operator and every compiled plan closure, so the
// struct's size is a per-operation copy cost: keeping the slice headers
// out of line halves it.
type Value struct {
	width  int
	signed bool
	a0, b0 uint64  // inline planes when width <= 64
	wide   *planes // out-of-line planes when width > 64
}

// planes holds a wide value's aval/bval planes, both sliced from one
// backing array.
type planes struct {
	as, bs []uint64
}

// newPlanes returns zeroed planes of n words each.
func newPlanes(n int) *planes {
	buf := make([]uint64, 2*n)
	return &planes{as: buf[:n:n], bs: buf[n:]}
}

func words(width int) int {
	if width <= 0 {
		width = 1
	}
	return (width + 63) / 64
}

// newVal returns an all-zero width-bit value, allocating plane slices only
// when the width does not fit the inline words.
func newVal(width int) Value {
	if width <= 0 {
		width = 1
	}
	v := Value{width: width}
	if width > 64 {
		v.wide = newPlanes(words(width))
	}
	return v
}

// nwords returns the number of 64-bit plane words.
func (v *Value) nwords() int { return words(v.width) }

// aw reads aval plane word i.
func (v *Value) aw(i int) uint64 {
	if v.wide == nil {
		if i == 0 {
			return v.a0
		}
		return 0
	}
	return v.wide.as[i]
}

// bw reads bval plane word i.
func (v *Value) bw(i int) uint64 {
	if v.wide == nil {
		if i == 0 {
			return v.b0
		}
		return 0
	}
	return v.wide.bs[i]
}

// setaw writes aval plane word i.
func (v *Value) setaw(i int, u uint64) {
	if v.wide == nil {
		if i == 0 {
			v.a0 = u
		}
		return
	}
	v.wide.as[i] = u
}

// setbw writes bval plane word i.
func (v *Value) setbw(i int, u uint64) {
	if v.wide == nil {
		if i == 0 {
			v.b0 = u
		}
		return
	}
	v.wide.bs[i] = u
}

// New returns a width-bit value with every bit set to fill.
func New(width int, fill Bit) Value {
	v := newVal(width)
	var aw, bw uint64
	switch fill {
	case B1:
		aw = ^uint64(0)
	case BX:
		aw, bw = ^uint64(0), ^uint64(0)
	case BZ:
		bw = ^uint64(0)
	}
	for i := 0; i < v.nwords(); i++ {
		v.setaw(i, aw)
		v.setbw(i, bw)
	}
	v.normalize()
	return v
}

// Zero returns a width-bit all-zero value.
func Zero(width int) Value { return New(width, B0) }

// AllX returns a width-bit all-unknown value.
func AllX(width int) Value { return New(width, BX) }

// AllZ returns a width-bit all-high-impedance value.
func AllZ(width int) Value { return New(width, BZ) }

// FromUint64 returns a width-bit value holding u (truncated to width).
func FromUint64(width int, u uint64) Value {
	v := newVal(width)
	v.setaw(0, u)
	v.normalize()
	return v
}

// FromInt64 returns a width-bit signed value holding i (two's complement,
// truncated to width). The result is marked signed.
func FromInt64(width int, i int64) Value {
	v := newVal(width)
	v.setaw(0, uint64(i))
	if i < 0 {
		for w := 1; w < v.nwords(); w++ {
			v.setaw(w, ^uint64(0))
		}
	}
	v.signed = true
	v.normalize()
	return v
}

// FromBits builds a value from bits listed MSB first.
func FromBits(bits ...Bit) Value {
	v := New(len(bits), B0)
	for i, bit := range bits {
		v.setBit(len(bits)-1-i, bit)
	}
	return v
}

// FromBitString parses a string of 0/1/x/z/_ characters (MSB first), e.g.
// "10xz". It panics on other characters; it is intended for literals in
// tests and generators, not user input.
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

// Bool returns a one-bit value: 1 if t, else 0.
func Bool(t bool) Value {
	if t {
		return FromUint64(1, 1)
	}
	return FromUint64(1, 0)
}

func (v Value) clone() Value {
	c := v
	if v.wide != nil {
		c.wide = newPlanes(len(v.wide.as))
		copy(c.wide.as, v.wide.as)
		copy(c.wide.bs, v.wide.bs)
	}
	return c
}

func (v *Value) normalize() {
	rem := uint(v.width % 64)
	if rem != 0 {
		mask := (uint64(1) << rem) - 1
		last := v.nwords() - 1
		v.setaw(last, v.aw(last)&mask)
		v.setbw(last, v.bw(last)&mask)
	}
}

// Width returns the bit width of the value.
func (v Value) Width() int { return v.width }

// Signed reports whether the value carries a signed interpretation.
func (v Value) Signed() bool { return v.signed }

// AsSigned returns a copy marked signed.
func (v Value) AsSigned() Value {
	c := v.clone()
	c.signed = true
	return c
}

// AsUnsigned returns a copy marked unsigned.
func (v Value) AsUnsigned() Value {
	c := v.clone()
	c.signed = false
	return c
}

// Bit returns the state of bit i (0 = LSB). Out-of-range bits read as x.
func (v Value) Bit(i int) Bit {
	if i < 0 || i >= v.width {
		return BX
	}
	av := v.aw(i/64) >> (uint(i) % 64) & 1
	bv := v.bw(i/64) >> (uint(i) % 64) & 1
	switch {
	case bv == 0 && av == 0:
		return B0
	case bv == 0 && av == 1:
		return B1
	case bv == 1 && av == 0:
		return BZ
	default:
		return BX
	}
}

func (v *Value) setBit(i int, bit Bit) {
	if i < 0 || i >= v.width {
		return
	}
	w, s := i/64, uint(i)%64
	a := v.aw(w) &^ (1 << s)
	b := v.bw(w) &^ (1 << s)
	switch bit {
	case B1:
		a |= 1 << s
	case BX:
		a |= 1 << s
		b |= 1 << s
	case BZ:
		b |= 1 << s
	}
	v.setaw(w, a)
	v.setbw(w, b)
}

// WithBit returns a copy of v with bit i set to bit.
func (v Value) WithBit(i int, bit Bit) Value {
	c := v.clone()
	c.setBit(i, bit)
	return c
}

// IsKnown reports whether every bit is 0 or 1.
func (v Value) IsKnown() bool {
	if v.wide == nil {
		return v.b0 == 0
	}
	for _, w := range v.wide.bs {
		if w != 0 {
			return false
		}
	}
	return true
}

// HasZ reports whether any bit is z.
func (v Value) HasZ() bool {
	for i := 0; i < v.nwords(); i++ {
		if v.bw(i)&^v.aw(i) != 0 {
			return true
		}
	}
	return false
}

// IsZero reports whether the value is fully known and equal to zero.
func (v Value) IsZero() bool {
	if !v.IsKnown() {
		return false
	}
	for i := 0; i < v.nwords(); i++ {
		if v.aw(i) != 0 {
			return false
		}
	}
	return true
}

// Uint64 returns the low 64 bits of the value and reports whether the whole
// value is known and fits in 64 bits.
func (v Value) Uint64() (uint64, bool) {
	if !v.IsKnown() {
		return 0, false
	}
	for i := 1; i < v.nwords(); i++ {
		if v.aw(i) != 0 {
			return v.aw(0), false
		}
	}
	return v.aw(0), true
}

// Int64 returns the value as a signed 64-bit integer (sign-extended from
// the value's width) and reports whether the value is known and fits.
func (v Value) Int64() (int64, bool) {
	if !v.IsKnown() || v.width > 64 {
		u, ok := v.Uint64()
		return int64(u), ok && v.width <= 64
	}
	u := v.aw(0)
	if v.signed && v.width < 64 && u&(1<<uint(v.width-1)) != 0 {
		u |= ^uint64(0) << uint(v.width)
	}
	return int64(u), true
}

// Equal reports exact equality: same width and identical bit states
// (signedness is ignored). This is Go-level equality, not Verilog ==.
func (v Value) Equal(o Value) bool {
	if v.width != o.width {
		return false
	}
	for i := 0; i < v.nwords(); i++ {
		if v.aw(i) != o.aw(i) || v.bw(i) != o.bw(i) {
			return false
		}
	}
	return true
}

// Resize returns v resized to width bits. Narrowing truncates; widening
// zero-extends, or sign-extends when v is signed (x/z sign bits extend as
// x/z, matching the LRM).
func (v Value) Resize(width int) Value {
	if width <= 0 {
		width = 1
	}
	out := newVal(width)
	out.signed = v.signed
	n := min(width, v.width)
	for i := 0; i < words(n); i++ {
		out.setaw(i, v.aw(i))
		out.setbw(i, v.bw(i))
	}
	out.normalize()
	if width > v.width && v.signed {
		sign := v.Bit(v.width - 1)
		if sign != B0 {
			for i := v.width; i < width; i++ {
				out.setBit(i, sign)
			}
		}
	}
	return out
}

// ResizeAs returns v reinterpreted with the given signedness and resized to
// width bits in one step: exactly AsSigned()/AsUnsigned() followed by
// Resize(width), without the intermediate clone. Compiled expression plans
// use it to apply a pre-resolved context (width, signedness) to a runtime
// value.
func (v Value) ResizeAs(width int, signed bool) Value {
	v.signed = signed // value receiver: caller's copy is untouched
	return v.Resize(width)
}

// Concat concatenates parts MSB-first: Concat(a, b) has a in the high bits.
func Concat(parts ...Value) Value {
	total := 0
	for _, p := range parts {
		total += p.width
	}
	out := Zero(total)
	pos := total
	for _, p := range parts {
		pos -= p.width
		for i := 0; i < p.width; i++ {
			out.setBit(pos+i, p.Bit(i))
		}
	}
	return out
}

// Replicate returns n copies of v concatenated.
func Replicate(n int, v Value) Value {
	if n <= 0 {
		return Zero(1)
	}
	parts := make([]Value, n)
	for i := range parts {
		parts[i] = v
	}
	return Concat(parts...)
}

// Slice extracts bits [msb:lsb] (inclusive). Out-of-range bits read as x.
func (v Value) Slice(msb, lsb int) Value {
	if msb < lsb {
		msb, lsb = lsb, msb
	}
	out := Zero(msb - lsb + 1)
	for i := lsb; i <= msb; i++ {
		out.setBit(i-lsb, v.Bit(i))
	}
	return out
}

// String renders the value as a sized binary literal, e.g. 4'b10x1.
func (v Value) String() string {
	return strconv.Itoa(v.width) + "'b" + v.BinString()
}

// BinString renders the raw bit string, MSB first.
func (v Value) BinString() string {
	var stack [64]byte
	buf := stack[:]
	if v.width > len(stack) {
		buf = make([]byte, v.width)
	}
	buf = buf[:v.width]
	for w := 0; w*64 < v.width; w++ {
		a, b := v.aw(w), v.bw(w)
		top := v.width - 1 - w*64
		for j := 0; j < 64 && j <= top; j++ {
			buf[top-j] = "01zx"[(b>>uint(j)&1)<<1|a>>uint(j)&1]
		}
	}
	return string(buf)
}

// HexString renders the value in hex; nibbles containing mixed known and
// unknown bits print as uppercase X/Z markers per common tool convention.
func (v Value) HexString() string {
	nibbles := (v.width + 3) / 4
	var stack [16]byte
	buf := stack[:0]
	if nibbles > len(stack) {
		buf = make([]byte, 0, nibbles)
	}
	for n := nibbles - 1; n >= 0; n-- {
		lo := n * 4
		mask := uint64(1)<<uint(min(4, v.width-lo)) - 1
		a := v.aw(lo/64) >> uint(lo%64) & mask
		b := v.bw(lo/64) >> uint(lo%64) & mask
		switch {
		case b == 0:
			buf = append(buf, "0123456789abcdef"[a])
		case a == mask && b == mask:
			buf = append(buf, 'x')
		case a == 0 && b == mask:
			buf = append(buf, 'z')
		default:
			buf = append(buf, 'X')
		}
	}
	return string(buf)
}

// DecString renders the value in decimal; if any bit is unknown the result
// is "x" (or "z" if all bits are z), matching %d display semantics.
func (v Value) DecString() string {
	if !v.IsKnown() {
		if v.allZ() {
			return "z"
		}
		return "x"
	}
	if v.signed {
		if i, ok := v.Int64(); ok {
			return strconv.FormatInt(i, 10)
		}
	}
	if u, ok := v.Uint64(); ok {
		return strconv.FormatUint(u, 10)
	}
	// Multi-word decimal via repeated division by 10.
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

// allZ reports whether every bit is z.
func (v Value) allZ() bool {
	n := v.nwords()
	for i := 0; i < n; i++ {
		mask := ^uint64(0)
		if rem := uint(v.width % 64); i == n-1 && rem != 0 {
			mask = uint64(1)<<rem - 1
		}
		if v.bw(i) != mask || v.aw(i) != 0 {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
