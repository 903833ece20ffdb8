package sim

import (
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
	"repro/internal/vnum"
)

// This file implements runtime expression evaluation with IEEE 1364 width
// and signedness propagation: the width of a context-determined expression
// is the maximum of its self-determined width and the assignment context;
// the expression is signed only if every context operand is signed, and in
// an unsigned expression signed operands are treated as unsigned.
//
// Two engines share these semantics. The default engine executes compiled
// expression plans (plan.go), bound once per statement when the statement
// binds (stmt.go): context derivation happens at plan-construction time.
// Options.Interpret selects the AST-walking interpreter below, which
// re-derives context (elab.SelfWidth / elab.SelfSigned) on every
// evaluation; it is the bit-for-bit reference the differential tests
// compare the plans against.

// ---- the AST-walking interpreter -----------------------------------------

// evalInterp evaluates e with assignment-context width ctx (0 for a
// self-determined position) by AST interpretation, re-deriving the
// context.
func (s *Simulator) evalInterp(e vlog.Expr, in *elab.Inst, ctx int) vnum.Value {
	w := elab.SelfWidth(e, in)
	if ctx > w {
		w = ctx
	}
	return s.evalSizedInterp(e, in, w, elab.SelfSigned(e, in))
}

// evalSizedInterp evaluates e at width w with expression-level signedness
// sg by walking the AST.
func (s *Simulator) evalSizedInterp(e vlog.Expr, in *elab.Inst, w int, sg bool) vnum.Value {
	sized := func(v vnum.Value) vnum.Value {
		if sg {
			v = v.AsSigned()
		} else {
			v = v.AsUnsigned()
		}
		return v.Resize(w)
	}
	switch n := e.(type) {
	case *vlog.Number:
		return sized(n.Value)
	case *vlog.Str:
		v := vnum.Zero(8 * max(1, len(n.Text)))
		for i := 0; i < len(n.Text); i++ {
			b := n.Text[len(n.Text)-1-i]
			for k := 0; k < 8; k++ {
				if b>>uint(k)&1 == 1 {
					v = v.WithBit(i*8+k, vnum.B1)
				}
			}
		}
		return sized(v)
	case *vlog.Ident:
		if st := s.sig(in, n.Name); st != nil {
			return sized(st.val)
		}
		if p, ok := in.Params[n.Name]; ok {
			return sized(p)
		}
		return vnum.AllX(w)
	case *vlog.Index:
		return sized(s.evalIndex(n, in))
	case *vlog.RangeSel:
		return sized(s.evalRangeSel(n, in))
	case *vlog.Unary:
		switch n.Op {
		case "+", "-", "~":
			x := s.evalSizedInterp(n.X, in, w, sg)
			return sized(elab.ApplyUnary(n.Op, x))
		default: // reductions, !
			x := s.evalInterp(n.X, in, 0)
			if n.Op == "!" {
				return sized(vnum.LogNot(x))
			}
			return sized(elab.ApplyUnary(n.Op, x))
		}
	case *vlog.Binary:
		switch n.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			x := s.evalSizedInterp(n.X, in, w, sg)
			y := s.evalSizedInterp(n.Y, in, w, sg)
			return sized(elab.ApplyBinary(n.Op, x, y))
		case "<<", "<<<", ">>", ">>>":
			x := s.evalSizedInterp(n.X, in, w, sg)
			y := s.evalInterp(n.Y, in, 0).AsUnsigned()
			return sized(elab.ApplyBinary(n.Op, x, y))
		case "**":
			x := s.evalSizedInterp(n.X, in, w, sg)
			// the exponent keeps its own signedness: the LRM negative-
			// exponent cases in vnum.Pow need it
			y := s.evalInterp(n.Y, in, 0)
			return sized(elab.ApplyBinary(n.Op, x, y))
		case "&&", "||":
			x := s.evalInterp(n.X, in, 0)
			y := s.evalInterp(n.Y, in, 0)
			return sized(elab.ApplyBinary(n.Op, x, y))
		default: // relational and equality: operands sized to their max
			ow := elab.SelfWidth(n.X, in)
			if yw := elab.SelfWidth(n.Y, in); yw > ow {
				ow = yw
			}
			osg := elab.SelfSigned(n.X, in) && elab.SelfSigned(n.Y, in)
			x := s.evalSizedInterp(n.X, in, ow, osg)
			y := s.evalSizedInterp(n.Y, in, ow, osg)
			return sized(elab.ApplyBinary(n.Op, x, y))
		}
	case *vlog.Ternary:
		c := s.evalInterp(n.Cond, in, 0).Truth()
		switch c {
		case vnum.B1:
			return s.evalSizedInterp(n.Then, in, w, sg)
		case vnum.B0:
			return s.evalSizedInterp(n.Else, in, w, sg)
		default:
			// LRM: merge both branches bitwise; equal bits survive
			a := s.evalSizedInterp(n.Then, in, w, sg)
			b := s.evalSizedInterp(n.Else, in, w, sg)
			return sized(vnum.TernaryMerge(a, b, w))
		}
	case *vlog.Concat:
		parts := make([]vnum.Value, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = s.evalInterp(p, in, 0)
		}
		return sized(vnum.Concat(parts...))
	case *vlog.Repl:
		cnt := 0
		if v, err := elab.ConstEval(n.Count, in); err == nil {
			if u, ok := v.Uint64(); ok {
				cnt = int(u)
			}
		}
		x := s.evalInterp(n.X, in, 0)
		return sized(vnum.Replicate(cnt, x))
	case *vlog.SysCallExpr:
		return sized(s.evalSysFunc(n, in))
	default:
		return vnum.AllX(w)
	}
}

func (s *Simulator) evalIndex(n *vlog.Index, in *elab.Inst) vnum.Value {
	if id, ok := n.X.(*vlog.Ident); ok {
		if ms := s.mem(in, id.Name); ms != nil {
			iv := s.evalInterp(n.I, in, 0)
			addr, ok := iv.AsUnsigned().Uint64()
			if !iv.IsKnown() || !ok {
				return vnum.AllX(ms.decl.Width)
			}
			idx, inRange := ms.decl.WordIndex(int(addr))
			if !inRange {
				return vnum.AllX(ms.decl.Width)
			}
			return ms.words[idx]
		}
	}
	base := s.evalInterp(n.X, in, 0)
	iv := s.evalInterp(n.I, in, 0)
	bi, ok := iv.AsUnsigned().Uint64()
	if !iv.IsKnown() || !ok {
		return vnum.AllX(1)
	}
	// map the declared index through the signal's range when the base is a
	// plain signal; otherwise index zero-based
	if id, ok2 := n.X.(*vlog.Ident); ok2 {
		if st := s.sig(in, id.Name); st != nil {
			off, inRange := st.decl.Offset(int(bi))
			if !inRange {
				return vnum.AllX(1)
			}
			return vnum.FromBits(base.Bit(off))
		}
	}
	if bi >= uint64(base.Width()) {
		return vnum.AllX(1)
	}
	return vnum.FromBits(base.Bit(int(bi)))
}

func (s *Simulator) evalRangeSel(n *vlog.RangeSel, in *elab.Inst) vnum.Value {
	msb, lsb, ok := elab.PartSelBounds(n, in)
	if !ok {
		return vnum.AllX(1)
	}
	base := s.evalInterp(n.X, in, 0)
	if id, ok2 := n.X.(*vlog.Ident); ok2 {
		if st := s.sig(in, id.Name); st != nil {
			hiOff, ok1 := st.decl.Offset(msb)
			loOff, ok2 := st.decl.Offset(lsb)
			if !ok1 || !ok2 {
				w := msb - lsb
				if w < 0 {
					w = -w
				}
				return vnum.AllX(w + 1)
			}
			return base.Slice(hiOff, loOff)
		}
	}
	return base.Slice(msb, lsb)
}

func (s *Simulator) evalSysFunc(n *vlog.SysCallExpr, in *elab.Inst) vnum.Value {
	switch n.Name {
	case "$time", "$stime":
		return vnum.FromUint64(64, s.time)
	case "$random":
		return vnum.FromUint64(32, s.random()&0xFFFFFFFF).AsSigned()
	case "$urandom":
		return vnum.FromUint64(32, s.random()&0xFFFFFFFF)
	case "$signed":
		if len(n.Args) == 1 {
			return s.evalInterp(n.Args[0], in, 0).AsSigned()
		}
	case "$unsigned":
		if len(n.Args) == 1 {
			return s.evalInterp(n.Args[0], in, 0).AsUnsigned()
		}
	case "$clog2":
		if len(n.Args) == 1 {
			v, ok := s.evalInterp(n.Args[0], in, 0).Uint64()
			if ok {
				r := 0
				for (uint64(1) << uint(r)) < v {
					r++
				}
				return vnum.FromUint64(32, uint64(r))
			}
		}
	}
	return vnum.AllX(32)
}

// ---- static identifier collection ---------------------------------------

// collectIdents appends every identifier read by e to out.
func collectIdents(e vlog.Expr, out []string) []string {
	switch n := e.(type) {
	case nil:
		return out
	case *vlog.Ident:
		return append(out, n.Name)
	case *vlog.Unary:
		return collectIdents(n.X, out)
	case *vlog.Binary:
		return collectIdents(n.Y, collectIdents(n.X, out))
	case *vlog.Ternary:
		return collectIdents(n.Else, collectIdents(n.Then, collectIdents(n.Cond, out)))
	case *vlog.Concat:
		for _, p := range n.Parts {
			out = collectIdents(p, out)
		}
		return out
	case *vlog.Repl:
		return collectIdents(n.X, collectIdents(n.Count, out))
	case *vlog.Index:
		return collectIdents(n.I, collectIdents(n.X, out))
	case *vlog.RangeSel:
		return collectIdents(n.X, out) // bounds are constants
	case *vlog.SysCallExpr:
		for _, a := range n.Args {
			out = collectIdents(a, out)
		}
		return out
	default:
		return out
	}
}

// rootIdent returns the base identifier of an lvalue, when it has a single
// one (identifier, select of identifier).
func rootIdent(e vlog.Expr) (string, bool) {
	switch n := e.(type) {
	case *vlog.Ident:
		return n.Name, true
	case *vlog.Index:
		return rootIdent(n.X)
	case *vlog.RangeSel:
		return rootIdent(n.X)
	default:
		return "", false
	}
}

// lvalueReadIdents returns identifiers *read* by an lvalue (index
// expressions), not the written target itself.
func lvalueReadIdents(e vlog.Expr) []string {
	switch n := e.(type) {
	case *vlog.Index:
		return collectIdents(n.I, lvalueReadIdents(n.X))
	case *vlog.RangeSel:
		return lvalueReadIdents(n.X)
	case *vlog.Concat:
		var out []string
		for _, p := range n.Parts {
			out = append(out, lvalueReadIdents(p)...)
		}
		return out
	default:
		return nil
	}
}

// collectStmtReads gathers every identifier read anywhere in a statement
// tree; used for @* sensitivity.
func collectStmtReads(st vlog.Stmt, out []string) []string {
	switch n := st.(type) {
	case nil, *vlog.Null:
		return out
	case *vlog.Block:
		for _, s2 := range n.Stmts {
			out = collectStmtReads(s2, out)
		}
		return out
	case *vlog.Assign:
		out = collectIdents(n.RHS, out)
		for _, id := range lvalueReadIdents(n.LHS) {
			out = append(out, id)
		}
		return out
	case *vlog.If:
		out = collectIdents(n.Cond, out)
		out = collectStmtReads(n.Then, out)
		return collectStmtReads(n.Else, out)
	case *vlog.Case:
		out = collectIdents(n.Expr, out)
		for _, item := range n.Items {
			for _, e := range item.Exprs {
				out = collectIdents(e, out)
			}
			out = collectStmtReads(item.Body, out)
		}
		return out
	case *vlog.For:
		out = collectStmtReads(n.Init, out)
		out = collectIdents(n.Cond, out)
		out = collectStmtReads(n.Step, out)
		return collectStmtReads(n.Body, out)
	case *vlog.While:
		out = collectIdents(n.Cond, out)
		return collectStmtReads(n.Body, out)
	case *vlog.Repeat:
		out = collectIdents(n.Count, out)
		return collectStmtReads(n.Body, out)
	case *vlog.Forever:
		return collectStmtReads(n.Body, out)
	case *vlog.Delay:
		out = collectIdents(n.Amount, out)
		return collectStmtReads(n.Stmt, out)
	case *vlog.EventCtrl:
		for _, ev := range n.Events {
			out = collectIdents(ev.X, out)
		}
		return collectStmtReads(n.Stmt, out)
	case *vlog.Wait:
		out = collectIdents(n.Cond, out)
		return collectStmtReads(n.Stmt, out)
	case *vlog.SysCall:
		for _, a := range n.Args {
			out = collectIdents(a, out)
		}
		return out
	default:
		return out
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
