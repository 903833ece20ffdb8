package sim

import (
	"fmt"
	"strconv"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// This file is the compiled statement engine. Each process statement is
// lowered, once, into a closure that holds everything its executions need:
// the bound expression plans of its right-hand side, condition, count or
// case labels, its target's writer, its wait site, its display format.
// Lowering is lazy: a statement binds the first time control reaches it,
// so a branch no run takes is never compiled, and the statements below a
// compound statement stay unbound until control reaches them in turn
// (closure compilation, Feeley and Lapalme 1987).
//
// The interpreter (exec in exec.go) is the reference: the two engines
// share no statement execution code (only caseMatch and the display
// format scanner, lowerLine), and TestCompiledMatchesInterpreterStatements
// holds them to the same output, time, step count and error.

// boundStmt is one statement lowered to a closure over the process's
// runtime state.
type boundStmt func()

// stmtSlot is a statement position in a process's bound tree: the AST
// statement and, once control has reached it, its bound form.
type stmtSlot struct {
	st  vlog.Stmt
	run boundStmt
}

// execBound executes the statement in sl, binding it on first use. The
// step is charged before binding, exactly where exec charges it, so
// Result.Steps and the point ErrStepLimit fires are the interpreter's and
// a statement the limit stops is never bound.
func (p *process) execBound(sl *stmtSlot) {
	p.sim.charge()
	if sl.run == nil {
		sl.run = p.bindStmt(sl.st)
	}
	sl.run()
}

func nop() {}

// bindStmt lowers one statement of this process.
func (p *process) bindStmt(st vlog.Stmt) boundStmt {
	s := p.sim
	in := p.proc.Scope
	s.binds++
	switch n := st.(type) {
	case nil, *vlog.Null:
		return nop
	case *vlog.Block:
		body := make([]stmtSlot, len(n.Stmts))
		for i, sub := range n.Stmts {
			body[i].st = sub
		}
		return func() {
			for i := range body {
				p.execBound(&body[i])
			}
		}
	case *vlog.Assign:
		rhs := s.compile(n.RHS, in, s.lvalueWidth(n.LHS, in))
		write := s.bindLValue(n.LHS, in)
		if n.NonBlocking {
			// the target's index expressions evaluate when the update
			// applies, inside write
			return func() { s.nba = append(s.nba, nbaUpdate{write: write, v: rhs()}) }
		}
		return func() { write(rhs()) }
	case *vlog.If:
		cond := s.compile(n.Cond, in, 0)
		then := stmtSlot{st: n.Then}
		if n.Else == nil {
			return func() {
				if cond().IsTrue() {
					p.execBound(&then)
				}
			}
		}
		els := stmtSlot{st: n.Else}
		return func() {
			if cond().IsTrue() {
				p.execBound(&then)
			} else {
				p.execBound(&els)
			}
		}
	case *vlog.Case:
		return p.bindCase(n)
	case *vlog.For:
		init, step, body := stmtSlot{st: n.Init}, stmtSlot{st: n.Step}, stmtSlot{st: n.Body}
		cond := s.compile(n.Cond, in, 0)
		return func() {
			p.execBound(&init)
			for cond().IsTrue() {
				p.execBound(&body)
				p.execBound(&step)
			}
		}
	case *vlog.While:
		cond := s.compile(n.Cond, in, 0)
		body := stmtSlot{st: n.Body}
		return func() {
			for cond().IsTrue() {
				p.execBound(&body)
			}
		}
	case *vlog.Repeat:
		count := s.compile(n.Count, in, 0)
		body := stmtSlot{st: n.Body}
		return func() {
			cnt, ok := count().Uint64()
			if !ok {
				cnt = 0
			}
			for i := uint64(0); i < cnt; i++ {
				p.execBound(&body)
			}
		}
	case *vlog.Forever:
		body := stmtSlot{st: n.Body}
		return func() {
			for {
				p.execBound(&body)
			}
		}
	case *vlog.Delay:
		amount := s.compile(n.Amount, in, 0)
		next := stmtSlot{st: n.Stmt}
		return func() {
			amt, ok := amount().Uint64()
			if !ok {
				amt = 0
			}
			p.waitDelay(amt)
			p.execBound(&next)
		}
	case *vlog.EventCtrl:
		return p.bindEvent(n)
	case *vlog.Wait:
		return p.bindWait(n)
	case *vlog.SysCall:
		return p.bindSysCall(n)
	default:
		return func() {
			panic(simAbort{err: &RuntimeError{Pos: st.NodePos(), Msg: "unsupported statement"}})
		}
	}
}

// caseArm is one non-default arm of a bound case statement.
type caseArm struct {
	labels []caseLabel
	body   stmtSlot
}

// caseLabel is one label expression. Its plan binds the first time the
// label is compared, at the comparison width w: the wider of the
// selector's static width and the label's own.
type caseLabel struct {
	e    vlog.Expr
	w    int
	plan compiledExpr
}

func (p *process) bindCase(n *vlog.Case) boundStmt {
	s := p.sim
	in := p.proc.Scope
	selPlan := s.planOf(n.Expr, in, 0)
	sel, selW := s.bind(selPlan), selPlan.Width
	var arms []caseArm
	var deflt *stmtSlot
	for _, item := range n.Items {
		if item.Exprs == nil {
			deflt = &stmtSlot{st: item.Body}
			continue
		}
		arm := caseArm{body: stmtSlot{st: item.Body}}
		for _, e := range item.Exprs {
			arm.labels = append(arm.labels, caseLabel{e: e})
		}
		arms = append(arms, arm)
	}
	kind := n.Kind
	return func() {
		v := sel()
		for ai := range arms {
			arm := &arms[ai]
			for li := range arm.labels {
				l := &arm.labels[li]
				if l.plan == nil {
					l.w = max(selW, elab.SelfWidth(l.e, in))
					l.plan = s.compileSized(l.e, in, l.w, false)
				}
				if caseMatch(kind, v.AsUnsigned().Resize(l.w), l.plan()) {
					p.execBound(&arm.body)
					return
				}
			}
		}
		if deflt != nil {
			p.execBound(deflt)
		}
	}
}

// bindEvent lowers an event control. The items (edge and bound plan) and
// the signals to register on are resolved here. Each block makes a fresh
// registration, so registration order, and with it wake order, is the
// interpreter's; the registrations share the site's items, because the
// process is suspended at the site until its registration wakes, and a
// woken registration is never checked again.
func (p *process) bindEvent(n *vlog.EventCtrl) boundStmt {
	s := p.sim
	in := p.proc.Scope
	var items []waitItem
	var depNames []string
	if n.Star {
		for _, id := range s.starIdents(n) {
			items = append(items, waitItem{edge: vlog.EdgeAny, plan: s.compile(id, in, 0)})
			depNames = append(depNames, id.Name)
		}
	} else {
		for _, ev := range n.Events {
			items = append(items, waitItem{edge: ev.Edge, plan: s.compile(ev.X, in, 0)})
			depNames = append(depNames, collectIdents(ev.X, nil)...)
		}
		depNames = dedup(depNames)
	}
	deps := s.sigs(in, depNames)
	next := stmtSlot{st: n.Stmt}
	return func() {
		p.noteBlock()
		if len(deps) == 0 {
			panic(simAbort{err: &RuntimeError{Pos: n.Pos, Msg: "event control watches no signals"}})
		}
		for i := range items {
			items[i].last = items[i].plan()
		}
		wr := &waitReg{proc: p, active: true, items: items}
		for _, st := range deps {
			st.waits = append(st.waits, wr)
		}
		p.block()
		p.execBound(&next)
	}
}

// bindWait lowers wait(cond): the condition plan and the watched signals.
func (p *process) bindWait(n *vlog.Wait) boundStmt {
	s := p.sim
	in := p.proc.Scope
	cond := s.compile(n.Cond, in, 0)
	deps := s.sigs(in, dedup(collectIdents(n.Cond, nil)))
	next := stmtSlot{st: n.Stmt}
	return func() {
		if !cond().IsTrue() {
			p.noteBlock()
			if len(deps) == 0 {
				panic(simAbort{err: &RuntimeError{Pos: n.Cond.NodePos(), Msg: "wait condition watches no signals"}})
			}
			wr := &waitReg{proc: p, active: true, level: n.Cond, levelPlan: cond}
			for _, st := range deps {
				st.waits = append(st.waits, wr)
			}
			p.block()
		}
		p.execBound(&next)
	}
}

// sigs resolves names to the signals they denote in one instance, skipping
// names that are not signals (parameters, memories).
func (s *Simulator) sigs(in *elab.Inst, names []string) []*sigState {
	var out []*sigState
	for _, name := range names {
		if st := s.sig(in, name); st != nil {
			out = append(out, st)
		}
	}
	return out
}

func (p *process) bindSysCall(n *vlog.SysCall) boundStmt {
	s := p.sim
	in := p.proc.Scope
	plan := func(i int) compiledExpr { return s.compile(n.Args[i], in, 0) }
	switch n.Name {
	case "$display", "$strobe", "$error", "$write":
		f := lowerLine(n.Args, in, plan)
		if n.Name == "$write" {
			return func() {
				s.line = f.appendTo(s.line[:0])
				s.emit(s.line)
			}
		}
		return func() {
			s.line = append(f.appendTo(s.line[:0]), '\n')
			s.emit(s.line)
		}
	case "$monitor":
		// the trigger values and the line share one plan per argument
		plans := make([]compiledExpr, len(n.Args))
		shared := func(i int) compiledExpr {
			if plans[i] == nil {
				plans[i] = plan(i)
			}
			return plans[i]
		}
		var trig []compiledExpr
		for i, a := range n.Args {
			if monitorTrigger(a) {
				trig = append(trig, shared(i))
			}
		}
		f := lowerLine(n.Args, in, shared)
		return func() { s.monitor = &monitorState{trig: trig, line: f.appendTo, fresh: true} }
	case "$finish", "$fatal", "$stop":
		return func() { panic(errFinishSim{}) }
	case "$dumpvars":
		return s.enableVCD
	case "$dumpfile", "$readmemh", "$readmemb", "$time", "$random":
		// accepted with no effect in this environment, or valid as a
		// statement with the value discarded
		return nop
	default:
		return func() {
			panic(simAbort{err: &RuntimeError{Pos: n.Pos, Msg: fmt.Sprintf("unsupported system task %s", n.Name)}})
		}
	}
}

// ---- display formats ------------------------------------------------------

// lineFormat is a $display-family argument list lowered once: literal
// text (with %m, %% and string arguments already resolved) and the value
// conversions, each holding the bound plan of the argument it consumes.
type lineFormat []fmtSeg

// fmtSeg is one piece of a lowered line: literal text when arg is nil,
// otherwise the conversion verb ('d', 'b', 'h', 'o' or 'c') of arg's value.
type fmtSeg struct {
	lit  string
	verb byte
	arg  compiledExpr
}

// lowerLine is the one scanner of the $display format grammar; both
// engines format through it. Which argument each conversion consumes
// depends only on the format text, so it is fixed here; plan(i) supplies
// the evaluator of args[i] (a bound plan in the compiled engine, a lazy
// interpreter call in the oracle), and only consumed arguments get one.
func lowerLine(args []vlog.Expr, in *elab.Inst, plan func(i int) compiledExpr) lineFormat {
	var f lineFormat
	lit := func(text string) {
		if k := len(f); k > 0 && f[k-1].arg == nil {
			f[k-1].lit += text
			return
		}
		f = append(f, fmtSeg{lit: text})
	}
	if len(args) == 0 {
		return nil
	}
	fmtStr, ok := args[0].(*vlog.Str)
	if !ok {
		for i, a := range args {
			if i > 0 {
				lit(" ")
			}
			if str, ok := a.(*vlog.Str); ok {
				lit(str.Text)
				continue
			}
			f = append(f, fmtSeg{verb: 'd', arg: plan(i)})
		}
		return f
	}
	format := fmtStr.Text
	argi := 1
	conv := func(verb byte) {
		if argi < len(args) {
			f = append(f, fmtSeg{verb: verb, arg: plan(argi)})
			argi++
		}
	}
	for i := 0; i < len(format); {
		if format[i] != '%' {
			j := i + 1
			for j < len(format) && format[j] != '%' {
				j++
			}
			lit(format[i:j])
			i = j
			continue
		}
		i++
		// skip width/zero flags: %0d, %2b etc.
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			i++
		}
		if i >= len(format) {
			lit("%")
			break
		}
		spec := format[i]
		i++
		switch spec {
		case '%':
			lit("%")
		case 'd', 'D', 't', 'T':
			conv('d')
		case 'b', 'B':
			conv('b')
		case 'h', 'H', 'x', 'X':
			conv('h')
		case 'o', 'O':
			conv('o')
		case 'c':
			conv('c')
		case 's':
			if argi < len(args) {
				if str, ok := args[argi].(*vlog.Str); ok {
					lit(str.Text)
					argi++
					break
				}
			}
			conv('d')
		case 'm':
			lit(in.Path)
		default:
			lit("%" + format[i-1:i]) // an unknown verb is written back, width dropped
		}
	}
	return f
}

// appendTo evaluates the line's arguments in order and appends the text.
func (f lineFormat) appendTo(b []byte) []byte {
	for _, sg := range f {
		if sg.arg == nil {
			b = append(b, sg.lit...)
			continue
		}
		v := sg.arg()
		switch sg.verb {
		case 'd':
			b = append(b, v.DecString()...)
		case 'b':
			b = append(b, v.BinString()...)
		case 'h':
			b = append(b, v.HexString()...)
		case 'o':
			b = strconv.AppendUint(b, mustU64(v), 8)
		case 'c':
			b = append(b, byte(mustU64(v)))
		}
	}
	return b
}
