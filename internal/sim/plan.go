package sim

import (
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
	"repro/internal/vnum"
)

// This file binds elaboration-time expression plans (elab.Plan) to
// executable closures over this simulator's runtime state. A bound plan
// reads signal values through captured *sigState pointers and runs
// pre-resolved vnum operations; nothing in the closure tree re-derives
// widths, looks up names, or type-switches over the AST. A plan binds
// when the statement, continuous assignment or event control that
// evaluates it binds (stmt.go), and that owner holds the closure, so
// steady-state evaluation is straight-line closure calls with no lookup.
//
// Bound plans are bit-for-bit equivalent to the interpreter in eval.go,
// including sub-expression evaluation order (observable through $random)
// and the signedness flags %d formatting reads. Options.Interpret selects
// the interpreter instead; the differential tests compare the two.

// compiledExpr is an executable expression plan.
type compiledExpr func() vnum.Value

// Plan lookup modes: a context-width evaluation (the eval entry point) or
// a fixed-width evaluation with forced signedness (case labels).
const (
	planCtx uint8 = iota
	planFixedU
	planFixedS
)

// planKey identifies one compiled plan in the shared PlanCache: AST nodes
// are unique per syntactic position, so (expr, instance, width, mode) pins
// the evaluation context.
type planKey struct {
	e    vlog.Expr
	in   *elab.Inst
	w    int
	mode uint8
}

// compile returns the bound plan for evaluating e with assignment context
// ctx. With a shared PlanCache, the immutable compile step is fetched from
// (or published to) the cache and only the binding to this simulator's
// state runs locally. Nothing is memoized here: every caller binds once
// and keeps the closure.
func (s *Simulator) compile(e vlog.Expr, in *elab.Inst, ctx int) compiledExpr {
	return s.bind(s.planOf(e, in, ctx))
}

// planOf returns the unbound plan compile binds, for a caller that also
// needs its static width.
func (s *Simulator) planOf(e vlog.Expr, in *elab.Inst, ctx int) *elab.Plan {
	if s.opts.Plans == nil {
		return elab.CompileExpr(e, in, ctx)
	}
	k := planKey{e: e, in: in, w: ctx, mode: planCtx}
	return s.opts.Plans.plan(k, func() *elab.Plan { return elab.CompileExpr(e, in, ctx) })
}

// compileSized returns the bound plan for evaluating e at a fixed width
// and signedness (case labels).
func (s *Simulator) compileSized(e vlog.Expr, in *elab.Inst, w int, sg bool) compiledExpr {
	if s.opts.Plans == nil {
		return s.bind(elab.CompileExprSized(e, in, w, sg))
	}
	mode := planFixedU
	if sg {
		mode = planFixedS
	}
	k := planKey{e: e, in: in, w: w, mode: mode}
	return s.bind(s.opts.Plans.plan(k, func() *elab.Plan { return elab.CompileExprSized(e, in, w, sg) }))
}

// bind turns one plan node into a closure over runtime state. Every
// closure returns a value already at the node's (Width, Signed) context.
func (s *Simulator) bind(p *elab.Plan) compiledExpr {
	w, sg := p.Width, p.Signed
	// wrap applies the node context to a raw result whose static type is
	// (rawW, rawSigned); it is a no-op closure when they already match.
	wrap := func(raw compiledExpr, rawW int, rawSigned bool) compiledExpr {
		if rawW == w && rawSigned == sg {
			return raw
		}
		return func() vnum.Value { return raw().ResizeAs(w, sg) }
	}

	switch p.Op {
	case elab.PlanConst:
		v := p.Const
		return func() vnum.Value { return v }

	case elab.PlanSignal:
		st := s.sig(p.Scope, p.Sig.Name)
		if st == nil { // unreachable after elaboration; defensive
			v := vnum.AllX(w)
			return func() vnum.Value { return v }
		}
		// setSignal keeps st.val normalized to the declaration's width and
		// signedness, so the matching case returns the live value directly.
		return wrap(func() vnum.Value { return st.val }, st.decl.Width, st.decl.Signed)

	case elab.PlanMemRead:
		ms := s.mem(p.Scope, p.Mem.Name)
		idx := s.bind(p.X)
		bad := vnum.AllX(p.Mem.Width).ResizeAs(w, sg)
		if ms == nil { // defensive
			return func() vnum.Value { return bad }
		}
		return func() vnum.Value {
			iv := idx()
			addr, ok := iv.Uint64()
			if !iv.IsKnown() || !ok {
				return bad
			}
			wi, inRange := ms.decl.WordIndex(int(addr))
			if !inRange {
				return bad
			}
			// stored words keep the signedness of the value written, so the
			// context resize cannot be hoisted out of the closure
			return ms.words[wi].ResizeAs(w, sg)
		}

	case elab.PlanBitSel:
		base := s.bind(p.X)
		idx := s.bind(p.Y)
		bad := vnum.AllX(1).ResizeAs(w, sg)
		fit := func(b vnum.Bit) vnum.Value { return vnum.FromBits(b).ResizeAs(w, sg) }
		if w == 1 && !sg {
			fit = func(b vnum.Bit) vnum.Value { return vnum.FromBits(b) }
		}
		sig := p.Sig
		return func() vnum.Value {
			b := base()
			iv := idx()
			bi, ok := iv.Uint64()
			if !iv.IsKnown() || !ok {
				return bad
			}
			if sig != nil {
				off, inRange := sig.Offset(int(bi))
				if !inRange {
					return bad
				}
				return fit(b.Bit(off))
			}
			if bi >= uint64(b.Width()) {
				return bad
			}
			return fit(b.Bit(int(bi)))
		}

	case elab.PlanPartSel:
		base := s.bind(p.X)
		if !p.OK {
			// offsets outside the declared range: the base is still
			// evaluated (it may draw $random), the result is fixed all-x
			bad := vnum.AllX(p.Span).ResizeAs(w, sg)
			return func() vnum.Value {
				base()
				return bad
			}
		}
		hi, lo := p.A, p.B
		return wrap(func() vnum.Value { return base().Slice(hi, lo) }, p.Span, false)

	case elab.PlanUnary:
		x := s.bind(p.X)
		switch p.Text {
		case "-":
			return func() vnum.Value { return vnum.Neg(x()) }
		case "~":
			return func() vnum.Value { return vnum.Not(x()) }
		default: // "+"
			return x
		}

	case elab.PlanReduce:
		x := s.bind(p.X)
		var f func(vnum.Value) vnum.Value
		switch p.Text {
		case "!":
			f = vnum.LogNot
		case "&":
			f = vnum.RedAnd
		case "|":
			f = vnum.RedOr
		case "^":
			f = vnum.RedXor
		case "~&":
			f = vnum.RedNand
		case "~|":
			f = vnum.RedNor
		default: // ~^ ^~
			f = vnum.RedXnor
		}
		return wrap(func() vnum.Value { return f(x()) }, 1, false)

	case elab.PlanBinary:
		x, y := s.bind(p.X), s.bind(p.Y)
		var f func(a, b vnum.Value) vnum.Value
		switch p.Text {
		case "+":
			f = vnum.AddPresized
		case "-":
			f = vnum.SubPresized
		case "*":
			f = vnum.MulPresized
		case "/":
			f = vnum.Div
		case "%":
			f = vnum.Mod
		case "&":
			f = vnum.AndPresized
		case "|":
			f = vnum.OrPresized
		case "^":
			f = vnum.XorPresized
		default: // ~^ ^~
			f = vnum.XnorPresized
		}
		return func() vnum.Value {
			a := x()
			return f(a, y())
		}

	case elab.PlanShift:
		x, y := s.bind(p.X), s.bind(p.Y)
		var f func(a, b vnum.Value) vnum.Value
		switch p.Text {
		case "<<", "<<<":
			f = vnum.Shl
		case ">>":
			f = vnum.Shr
		default: // ">>>"
			f = vnum.Sshr
		}
		return func() vnum.Value {
			a := x()
			return f(a, y())
		}

	case elab.PlanPow:
		x, y := s.bind(p.X), s.bind(p.Y)
		return func() vnum.Value {
			a := x()
			return vnum.Pow(a, y())
		}

	case elab.PlanLogical:
		x, y := s.bind(p.X), s.bind(p.Y)
		f := vnum.LogAnd
		if p.Text == "||" {
			f = vnum.LogOr
		}
		return wrap(func() vnum.Value {
			a := x()
			return f(a, y())
		}, 1, false)

	case elab.PlanCompare:
		x, y := s.bind(p.X), s.bind(p.Y)
		var f func(a, b vnum.Value) vnum.Value
		switch p.Text {
		case "==":
			f = vnum.Eq
		case "!=":
			f = vnum.Neq
		case "===":
			f = vnum.CaseEq
		case "!==":
			f = vnum.CaseNeq
		case "<":
			f = vnum.Lt
		case "<=":
			f = vnum.Le
		case ">":
			f = vnum.Gt
		default: // ">="
			f = vnum.Ge
		}
		return wrap(func() vnum.Value {
			a := x()
			return f(a, y())
		}, 1, false)

	case elab.PlanTernary:
		c, t, e := s.bind(p.X), s.bind(p.Y), s.bind(p.Z)
		return func() vnum.Value {
			switch c().Truth() {
			case vnum.B1:
				return t()
			case vnum.B0:
				return e()
			default:
				// LRM: merge both branches bitwise; equal known bits survive
				a := t()
				b := e()
				m := vnum.TernaryMerge(a, b, w)
				if !sg {
					return m
				}
				return m.ResizeAs(w, sg)
			}
		}

	case elab.PlanConcat:
		parts := make([]compiledExpr, len(p.Parts))
		rawW := 0
		for i, sub := range p.Parts {
			parts[i] = s.bind(sub)
			rawW += sub.Width
		}
		if rawW == 0 {
			rawW = 1
		}
		// expression evaluation is atomic between process block points, so
		// one scratch buffer per closure is safe
		scratch := make([]vnum.Value, len(parts))
		return wrap(func() vnum.Value {
			for i, f := range parts {
				scratch[i] = f()
			}
			return vnum.Concat(scratch...)
		}, rawW, false)

	case elab.PlanRepl:
		x := s.bind(p.X)
		cnt := p.A
		rawW := cnt * p.X.Width
		if cnt <= 0 {
			rawW = 1
		}
		return wrap(func() vnum.Value { return vnum.Replicate(cnt, x()) }, rawW, false)

	case elab.PlanSysFunc:
		switch p.Text {
		case "$time", "$stime":
			return wrap(func() vnum.Value { return vnum.FromUint64(64, s.time) }, 64, false)
		case "$random":
			return wrap(func() vnum.Value {
				return vnum.FromUint64(32, s.random()&0xFFFFFFFF).AsSigned()
			}, 32, true)
		case "$urandom":
			return wrap(func() vnum.Value {
				return vnum.FromUint64(32, s.random()&0xFFFFFFFF)
			}, 32, false)
		case "$signed":
			x := s.bind(p.X)
			return wrap(func() vnum.Value { return x().AsSigned() }, p.X.Width, true)
		case "$unsigned":
			x := s.bind(p.X)
			return wrap(func() vnum.Value { return x().AsUnsigned() }, p.X.Width, false)
		case "$clog2":
			x := s.bind(p.X)
			return wrap(func() vnum.Value {
				v, ok := x().Uint64()
				if !ok {
					return vnum.AllX(32)
				}
				r := 0
				for (uint64(1) << uint(r)) < v {
					r++
				}
				return vnum.FromUint64(32, uint64(r))
			}, 32, false)
		}
		// unknown functions were folded to constants at compile time
		bad := vnum.AllX(32).ResizeAs(w, sg)
		return func() vnum.Value { return bad }

	default: // unreachable: every PlanOp is handled above
		bad := vnum.AllX(w)
		return func() vnum.Value { return bad }
	}
}

// ---- compiled lvalue writers -----------------------------------------------

// compiledWrite stores a value into a pre-resolved assignment target.
type compiledWrite func(v vnum.Value)

// bindLValue compiles an assignment target into a writer closure: name
// resolution, part-select bounds, and storage offsets happen here, index
// expressions become bound plans evaluated at write time. Semantics match
// writeLValue exactly, including discarded writes to unknown addresses.
func (s *Simulator) bindLValue(lhs vlog.Expr, in *elab.Inst) compiledWrite {
	noop := func(vnum.Value) {}
	switch n := lhs.(type) {
	case *vlog.Ident:
		st := s.sig(in, n.Name)
		if st == nil {
			return noop
		}
		return func(v vnum.Value) { s.setSignal(st, v) }
	case *vlog.Index:
		id, ok := n.X.(*vlog.Ident)
		if !ok {
			return noop
		}
		if ms := s.mem(in, id.Name); ms != nil {
			idx := s.compile(n.I, in, 0)
			return func(v vnum.Value) {
				iv := idx()
				addr, ok := iv.Uint64()
				if !iv.IsKnown() || !ok {
					return // write to unknown address is discarded
				}
				if wi, inRange := ms.decl.WordIndex(int(addr)); inRange {
					ms.words[wi] = v.Resize(ms.decl.Width)
				}
			}
		}
		if st := s.sig(in, id.Name); st != nil {
			idx := s.compile(n.I, in, 0)
			return func(v vnum.Value) {
				iv := idx()
				bi, ok := iv.Uint64()
				if !iv.IsKnown() || !ok {
					return
				}
				off, inRange := st.decl.Offset(int(bi))
				if !inRange {
					return
				}
				s.setSignal(st, st.val.WithBit(off, v.Bit(0)))
			}
		}
		return noop
	case *vlog.RangeSel:
		id, ok := n.X.(*vlog.Ident)
		if !ok {
			return noop
		}
		st := s.sig(in, id.Name)
		if st == nil {
			return noop
		}
		msb, lsb, okc := elab.PartSelBounds(n, in)
		if !okc {
			return noop
		}
		hiOff, ok1 := st.decl.Offset(msb)
		loOff, ok2 := st.decl.Offset(lsb)
		if !ok1 || !ok2 {
			return noop
		}
		if hiOff < loOff {
			hiOff, loOff = loOff, hiOff
		}
		return func(v vnum.Value) {
			cur := st.val
			for i := loOff; i <= hiOff; i++ {
				cur = cur.WithBit(i, v.Bit(i-loOff))
			}
			s.setSignal(st, cur)
		}
	case *vlog.Concat:
		// MSB-first split
		total := s.lvalueWidth(lhs, in)
		writers := make([]compiledWrite, len(n.Parts))
		widths := make([]int, len(n.Parts))
		for i, part := range n.Parts {
			writers[i] = s.bindLValue(part, in)
			widths[i] = s.lvalueWidth(part, in)
		}
		return func(v vnum.Value) {
			v = v.Resize(total)
			pos := total
			for i := range writers {
				pos -= widths[i]
				writers[i](v.Slice(pos+widths[i]-1, pos))
			}
		}
	default:
		return noop
	}
}

// ---- @* sensitivity ------------------------------------------------------

// starIdents returns the synthesized @* sensitivity idents for an event
// control, stable per simulator via starCache and — with a shared
// PlanCache — stable across simulators, so the per-ident plan keys share.
// The compiled engine asks once per binding of the control; the
// interpreter on every block.
func (s *Simulator) starIdents(n *vlog.EventCtrl) []*vlog.Ident {
	if ids, ok := s.starCache[n]; ok {
		return ids
	}
	var ids []*vlog.Ident
	if s.opts.Plans != nil {
		ids = s.opts.Plans.starIdents(n, func() []*vlog.Ident { return synthStarIdents(n) })
	} else {
		ids = synthStarIdents(n)
	}
	s.starCache[n] = ids
	return ids
}

// synthStarIdents builds the @* sensitivity list as Ident nodes.
func synthStarIdents(n *vlog.EventCtrl) []*vlog.Ident {
	names := dedup(collectStmtReads(n.Stmt, nil))
	idents := make([]*vlog.Ident, len(names))
	for i, name := range names {
		idents[i] = &vlog.Ident{Name: name}
	}
	return idents
}
