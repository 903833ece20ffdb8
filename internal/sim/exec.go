package sim

import (
	"fmt"
	"iter"
	"runtime/debug"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
	"repro/internal/vnum"
)

// process is one behavioural process (always or initial block) running as
// a coroutine under iter.Pull. The scheduler resumes it with next, which
// switches straight to the process's stack; the process hands control back
// by calling yield when it blocks on a delay or event, or by returning when
// its body ends. Exactly one side runs at a time, so simulation is fully
// deterministic, and no switch goes through the goroutine scheduler.
type process struct {
	sim  *Simulator
	proc *elab.Proc
	next func() (struct{}, bool) // resumes the body; false once it returned
	stop func()                  // unwinds a suspended body (yield returns false)
	// yield suspends the body; it reports false when the process is killed
	yield func(struct{}) bool
	done  bool
	// finish and err record how the body returned, for stepOnce to act
	// on: by $finish, or with a fatal error
	finish bool
	err    error
	// blockCount counts suspensions, for always-block livelock detection
	blockCount int
	// root is the body's statement slot in the compiled engine (stmt.go)
	root stmtSlot
}

// errKill unwinds a process body during shutdown.
type errKill struct{}

// errFinishSim unwinds a process after $finish.
type errFinishSim struct{}

func newProcess(s *Simulator, p *elab.Proc) *process {
	return &process{sim: s, proc: p, root: stmtSlot{st: p.Body}}
}

// stepOnce resumes the process until it blocks or its body returns,
// handling a return in scheduler context.
func (p *process) stepOnce() {
	if p.done {
		return
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.body)
	}
	if _, ok := p.next(); ok {
		return // blocked, already registered on its delay or event
	}
	p.done = true
	if p.err != nil {
		panic(simAbort{err: p.err})
	}
	if p.finish {
		p.sim.finished = true
	}
}

// kill unwinds a blocked process. A process that never started or
// already returned has nothing to unwind.
func (p *process) kill() {
	if p.done {
		return
	}
	p.done = true
	if p.stop != nil {
		p.stop()
	}
}

// body is the coroutine: it runs the process to its end and records how
// the end came. Every panic stops here, so the coroutine always returns
// normally; one that is not part of the simulator's own control flow
// becomes an InternalError carrying this stack.
func (p *process) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			switch r := r.(type) {
			case errKill: // killed while blocked: nothing to report
			case errFinishSim:
				p.finish = true
			case simAbort:
				p.err = r.err
			default:
				p.err = &InternalError{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	p.run()
}

// run executes the process body.
func (p *process) run() {
	if p.proc.Kind == elab.ProcInitial {
		p.runBody()
		return
	}
	// always block: loop forever; each iteration must block at least once,
	// otherwise the process would livelock the scheduler
	for {
		blocked := p.blockCount
		p.runBody()
		if p.blockCount == blocked {
			panic(simAbort{err: &RuntimeError{
				Pos: p.proc.Body.NodePos(),
				Msg: "always block contains no delay or event control",
			}})
		}
	}
}

// runBody executes the body once under the selected engine: its bound
// statement tree, or the AST interpreter.
func (p *process) runBody() {
	if p.sim.opts.Interpret {
		p.exec(p.proc.Body)
		return
	}
	p.execBound(&p.root)
}

// block suspends the process until the scheduler resumes it.
func (p *process) block() {
	if !p.yield(struct{}{}) {
		panic(errKill{})
	}
}

// ---- the statement interpreter --------------------------------------------

// exec interprets one statement by walking the AST. It is the reference
// the compiled engine (stmt.go) is differential-tested against, and the
// engine Options.Interpret selects.
func (p *process) exec(st vlog.Stmt) {
	s := p.sim
	in := p.proc.Scope
	s.charge()
	switch n := st.(type) {
	case nil, *vlog.Null:
	case *vlog.Block:
		for _, sub := range n.Stmts {
			p.exec(sub)
		}
	case *vlog.Assign:
		w := s.lvalueWidth(n.LHS, in)
		v := s.evalInterp(n.RHS, in, w)
		if n.NonBlocking {
			s.scheduleNBA(n.LHS, in, v)
		} else {
			s.writeLValue(n.LHS, in, v, true)
		}
	case *vlog.If:
		if s.evalInterp(n.Cond, in, 0).IsTrue() {
			p.exec(n.Then)
		} else if n.Else != nil {
			p.exec(n.Else)
		}
	case *vlog.Case:
		p.execCase(n)
	case *vlog.For:
		p.exec(n.Init)
		for s.evalInterp(n.Cond, in, 0).IsTrue() {
			p.exec(n.Body)
			p.exec(n.Step)
		}
	case *vlog.While:
		for s.evalInterp(n.Cond, in, 0).IsTrue() {
			p.exec(n.Body)
		}
	case *vlog.Repeat:
		cnt, ok := s.evalInterp(n.Count, in, 0).Uint64()
		if !ok {
			cnt = 0
		}
		for i := uint64(0); i < cnt; i++ {
			p.exec(n.Body)
		}
	case *vlog.Forever:
		for {
			p.exec(n.Body)
		}
	case *vlog.Delay:
		amt, ok := s.evalInterp(n.Amount, in, 0).Uint64()
		if !ok {
			amt = 0
		}
		p.waitDelay(amt)
		p.exec(n.Stmt)
	case *vlog.EventCtrl:
		p.waitEvent(n)
		p.exec(n.Stmt)
	case *vlog.Wait:
		p.waitLevel(n.Cond)
		p.exec(n.Stmt)
	case *vlog.SysCall:
		p.execSysCall(n)
	default:
		panic(simAbort{err: &RuntimeError{Pos: st.NodePos(), Msg: "unsupported statement"}})
	}
}

func (p *process) execCase(n *vlog.Case) {
	s := p.sim
	in := p.proc.Scope
	sel := s.evalInterp(n.Expr, in, 0)
	var deflt vlog.Stmt
	for _, item := range n.Items {
		if item.Exprs == nil {
			deflt = item.Body
			continue
		}
		for _, e := range item.Exprs {
			w := sel.Width()
			if lw := elab.SelfWidth(e, in); lw > w {
				w = lw
			}
			label := s.evalSizedInterp(e, in, w, false)
			selw := sel.AsUnsigned().Resize(w)
			if caseMatch(n.Kind, selw, label) {
				p.exec(item.Body)
				return
			}
		}
	}
	if deflt != nil {
		p.exec(deflt)
	}
}

// caseMatch implements case/casez/casex label comparison.
func caseMatch(kind vlog.CaseKind, sel, label vnum.Value) bool {
	w := sel.Width()
	for i := 0; i < w; i++ {
		a, b := sel.Bit(i), label.Bit(i)
		switch kind {
		case vlog.CaseExact:
			if a != b {
				return false
			}
		case vlog.CaseZ:
			if a == vnum.BZ || b == vnum.BZ {
				continue
			}
			if a != b {
				return false
			}
		case vlog.CaseX:
			if a == vnum.BZ || b == vnum.BZ || a == vnum.BX || b == vnum.BX {
				continue
			}
			if a != b {
				return false
			}
		}
	}
	return true
}

// ---- blocking primitives ------------------------------------------------

func (p *process) waitDelay(amount uint64) {
	p.noteBlock()
	p.sim.scheduleFuture(amount, activation{proc: p})
	p.block()
}

func (p *process) waitEvent(n *vlog.EventCtrl) {
	s := p.sim
	in := p.proc.Scope
	p.noteBlock()

	wr := &waitReg{proc: p, scope: in, active: true}

	var depNames []string
	if n.Star {
		for _, id := range s.starIdents(n) {
			wr.items = append(wr.items, waitItem{edge: vlog.EdgeAny, expr: id})
			depNames = append(depNames, id.Name)
		}
	} else {
		for _, ev := range n.Events {
			wr.items = append(wr.items, waitItem{edge: ev.Edge, expr: ev.X})
			depNames = append(depNames, collectIdents(ev.X, nil)...)
		}
		depNames = dedup(depNames)
	}
	// sample current values
	for i := range wr.items {
		wr.items[i].last = s.evalInterp(wr.items[i].expr, in, 0)
	}
	registered := false
	for _, name := range depNames {
		if st := s.sig(in, name); st != nil {
			st.waits = append(st.waits, wr)
			registered = true
		}
	}
	if !registered {
		panic(simAbort{err: &RuntimeError{Pos: n.Pos, Msg: "event control watches no signals"}})
	}
	p.block()
}

func (p *process) waitLevel(cond vlog.Expr) {
	s := p.sim
	in := p.proc.Scope
	if s.evalInterp(cond, in, 0).IsTrue() {
		return
	}
	p.noteBlock()
	wr := &waitReg{proc: p, scope: in, active: true, level: cond}
	registered := false
	for _, name := range dedup(collectIdents(cond, nil)) {
		if st := s.sig(in, name); st != nil {
			st.waits = append(st.waits, wr)
			registered = true
		}
	}
	if !registered {
		panic(simAbort{err: &RuntimeError{Pos: cond.NodePos(), Msg: "wait condition watches no signals"}})
	}
	p.block()
}

func dedup(names []string) []string {
	seen := map[string]bool{}
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// ---- system tasks ---------------------------------------------------------

func (p *process) execSysCall(n *vlog.SysCall) {
	s := p.sim
	in := p.proc.Scope
	// lines go through the shared format scanner; each argument is
	// evaluated when its conversion is reached, as the line is written
	interp := func(i int) compiledExpr {
		return func() vnum.Value { return s.evalInterp(n.Args[i], in, 0) }
	}
	switch n.Name {
	case "$display", "$strobe", "$error":
		s.line = append(lowerLine(n.Args, in, interp).appendTo(s.line[:0]), '\n')
		s.emit(s.line)
	case "$monitor":
		m := &monitorState{fresh: true}
		for i, a := range n.Args {
			if monitorTrigger(a) {
				m.trig = append(m.trig, interp(i))
			}
		}
		m.line = lowerLine(n.Args, in, interp).appendTo
		s.monitor = m
	case "$write":
		s.line = lowerLine(n.Args, in, interp).appendTo(s.line[:0])
		s.emit(s.line)
	case "$finish", "$fatal":
		panic(errFinishSim{})
	case "$stop":
		panic(errFinishSim{})
	case "$dumpvars":
		s.enableVCD()
	case "$dumpfile", "$readmemh", "$readmemb":
		// accepted, no effect in this environment
	case "$time", "$random":
		// valid as a statement, value discarded
	default:
		panic(simAbort{err: &RuntimeError{Pos: n.Pos, Msg: fmt.Sprintf("unsupported system task %s", n.Name)}})
	}
}

func mustU64(v vnum.Value) uint64 {
	u, _ := v.Uint64()
	return u
}

// ---- lvalue writes --------------------------------------------------------

// lvalueWidth returns the width of an assignment target (for RHS
// context). The compiled engine calls it once per target, when the
// statement binds; the interpreter on every execution.
func (s *Simulator) lvalueWidth(lhs vlog.Expr, in *elab.Inst) int {
	switch n := lhs.(type) {
	case *vlog.Ident:
		if st := s.sig(in, n.Name); st != nil {
			return st.decl.Width
		}
		return 1
	case *vlog.Index:
		if id, ok := n.X.(*vlog.Ident); ok {
			if ms := s.mem(in, id.Name); ms != nil {
				return ms.decl.Width
			}
		}
		return 1
	case *vlog.RangeSel:
		msb, lsb, ok := elab.PartSelBounds(n, in)
		if !ok {
			return 1
		}
		w := msb - lsb
		if w < 0 {
			w = -w
		}
		return w + 1
	case *vlog.Concat:
		total := 0
		for _, part := range n.Parts {
			total += s.lvalueWidth(part, in)
		}
		return total
	default:
		return 1
	}
}

// writeLValue stores v into the target. procedural is informational only;
// legality was established at elaboration.
func (s *Simulator) writeLValue(lhs vlog.Expr, in *elab.Inst, v vnum.Value, procedural bool) {
	switch n := lhs.(type) {
	case *vlog.Ident:
		if st := s.sig(in, n.Name); st != nil {
			s.setSignal(st, v)
		}
	case *vlog.Index:
		if id, ok := n.X.(*vlog.Ident); ok {
			if ms := s.mem(in, id.Name); ms != nil {
				iv := s.evalInterp(n.I, in, 0)
				addr, ok := iv.AsUnsigned().Uint64()
				if !iv.IsKnown() || !ok {
					return // write to unknown address is discarded
				}
				if idx, inRange := ms.decl.WordIndex(int(addr)); inRange {
					ms.words[idx] = v.Resize(ms.decl.Width)
				}
				return
			}
			if st := s.sig(in, id.Name); st != nil {
				iv := s.evalInterp(n.I, in, 0)
				bi, ok := iv.AsUnsigned().Uint64()
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
	case *vlog.RangeSel:
		id, ok := n.X.(*vlog.Ident)
		if !ok {
			return
		}
		st := s.sig(in, id.Name)
		if st == nil {
			return
		}
		msb, lsb, okc := elab.PartSelBounds(n, in)
		if !okc {
			return
		}
		hiOff, ok1 := st.decl.Offset(msb)
		loOff, ok2 := st.decl.Offset(lsb)
		if !ok1 || !ok2 {
			return
		}
		if hiOff < loOff {
			hiOff, loOff = loOff, hiOff
		}
		cur := st.val
		for i := loOff; i <= hiOff; i++ {
			cur = cur.WithBit(i, v.Bit(i-loOff))
		}
		s.setSignal(st, cur)
	case *vlog.Concat:
		// MSB-first split
		total := s.lvalueWidth(lhs, in)
		v = v.Resize(total)
		pos := total
		for _, part := range n.Parts {
			w := s.lvalueWidth(part, in)
			pos -= w
			s.writeLValue(part, in, v.Slice(pos+w-1, pos), procedural)
		}
	}
}

// scheduleNBA queues the update for the NBA region, where the target's
// index expressions evaluate and the value is written.
func (s *Simulator) scheduleNBA(lhs vlog.Expr, in *elab.Inst, v vnum.Value) {
	s.nba = append(s.nba, nbaUpdate{v: v, write: func(v vnum.Value) {
		s.writeLValue(lhs, in, v, true)
	}})
}

// noteBlock increments the per-process block counter.
func (p *process) noteBlock() { p.blockCount++ }
