package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"strconv"
	"strings"

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
}

// errKill unwinds a process body during shutdown.
type errKill struct{}

// errFinishSim unwinds a process after $finish.
type errFinishSim struct{}

func newProcess(s *Simulator, p *elab.Proc) *process {
	return &process{sim: s, proc: p}
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
		p.exec(p.proc.Body)
		return
	}
	// always block: loop forever; each iteration must block at least once,
	// otherwise the process would livelock the scheduler
	for {
		blocked := p.blockCount
		p.exec(p.proc.Body)
		if p.blockCount == blocked {
			panic(simAbort{err: &RuntimeError{
				Pos: p.proc.Body.NodePos(),
				Msg: "always block contains no delay or event control",
			}})
		}
	}
}

// block suspends the process until the scheduler resumes it.
func (p *process) block() {
	if !p.yield(struct{}{}) {
		panic(errKill{})
	}
}

// exec interprets one statement.
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
		if s.opts.Interpret {
			w := s.lvalueWidth(n.LHS, in)
			v := s.eval(n.RHS, in, w)
			if n.NonBlocking {
				s.scheduleNBA(n.LHS, in, v)
			} else {
				s.writeLValue(n.LHS, in, v, true)
			}
			break
		}
		ap := s.assignPlanFor(n, in)
		v := ap.rhs()
		if n.NonBlocking {
			// like scheduleNBA, index expressions of the target evaluate at
			// NBA-apply time (inside ap.write)
			s.nba = append(s.nba, nbaUpdate{apply: func() { ap.write(v) }})
		} else {
			ap.write(v)
		}
	case *vlog.If:
		if s.eval(n.Cond, in, 0).IsTrue() {
			p.exec(n.Then)
		} else if n.Else != nil {
			p.exec(n.Else)
		}
	case *vlog.Case:
		p.execCase(n)
	case *vlog.For:
		p.exec(n.Init)
		for s.eval(n.Cond, in, 0).IsTrue() {
			p.exec(n.Body)
			p.exec(n.Step)
		}
	case *vlog.While:
		for s.eval(n.Cond, in, 0).IsTrue() {
			p.exec(n.Body)
		}
	case *vlog.Repeat:
		cnt, ok := s.eval(n.Count, in, 0).Uint64()
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
		amt, ok := s.eval(n.Amount, in, 0).Uint64()
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
	sel := s.eval(n.Expr, in, 0)
	var deflt vlog.Stmt
	for _, item := range n.Items {
		if item.Exprs == nil {
			deflt = item.Body
			continue
		}
		for _, e := range item.Exprs {
			w := sel.Width()
			if lw := s.labelWidth(e, in); lw > w {
				w = lw
			}
			label := s.evalSized(e, in, w, false)
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

	if !s.opts.Interpret {
		// compiled mode: the item templates, bound plans, and dependency
		// signals are static per site; each block copies the template into
		// a fresh registration, so wake order matches the interpreter's
		ws := s.waitSiteFor(n, in)
		if len(ws.deps) == 0 {
			panic(simAbort{err: &RuntimeError{Pos: n.Pos, Msg: "event control watches no signals"}})
		}
		wr := &waitReg{proc: p, scope: in, active: true,
			items: append([]waitItem(nil), ws.items...)}
		for i := range wr.items {
			wr.items[i].last = wr.items[i].plan()
		}
		for _, st := range ws.deps {
			st.waits = append(st.waits, wr)
		}
		p.block()
		return
	}

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
		wr.items[i].last = s.eval(wr.items[i].expr, in, 0)
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

	if !s.opts.Interpret {
		ls := s.levelSiteFor(cond, in)
		if ls.cond().IsTrue() {
			return
		}
		p.noteBlock()
		if len(ls.deps) == 0 {
			panic(simAbort{err: &RuntimeError{Pos: cond.NodePos(), Msg: "wait condition watches no signals"}})
		}
		wr := &waitReg{proc: p, scope: in, active: true, level: cond, levelPlan: ls.cond}
		for _, st := range ls.deps {
			st.waits = append(st.waits, wr)
		}
		p.block()
		return
	}

	if s.eval(cond, in, 0).IsTrue() {
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
	switch n.Name {
	case "$display", "$strobe", "$error":
		s.write(s.formatArgs(n.Args, in) + "\n")
	case "$monitor":
		s.monitor = &monitorState{args: n.Args, scope: in, fresh: true}
	case "$write":
		s.write(s.formatArgs(n.Args, in))
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

// formatArgs implements $display-style formatting.
func (s *Simulator) formatArgs(args []vlog.Expr, in *elab.Inst) string {
	if len(args) == 0 {
		return ""
	}
	var sb strings.Builder
	if fmtStr, ok := args[0].(*vlog.Str); ok {
		s.formatString(&sb, fmtStr.Text, args[1:], in)
		return sb.String()
	}
	for i, a := range args {
		if i > 0 {
			sb.WriteString(" ")
		}
		if str, ok := a.(*vlog.Str); ok {
			sb.WriteString(str.Text)
			continue
		}
		sb.WriteString(s.eval(a, in, 0).DecString())
	}
	return sb.String()
}

func (s *Simulator) formatString(sb *strings.Builder, format string, args []vlog.Expr, in *elab.Inst) {
	argi := 0
	nextVal := func() (vnum.Value, bool) {
		if argi >= len(args) {
			return vnum.Value{}, false
		}
		v := s.eval(args[argi], in, 0)
		argi++
		return v, true
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			i++
			continue
		}
		i++
		// skip width/zero flags: %0d, %2b etc.
		for i < len(format) && (format[i] >= '0' && format[i] <= '9') {
			i++
		}
		if i >= len(format) {
			sb.WriteByte('%')
			break
		}
		spec := format[i]
		i++
		switch spec {
		case '%':
			sb.WriteByte('%')
		case 'd', 'D':
			if v, ok := nextVal(); ok {
				sb.WriteString(v.DecString())
			}
		case 'b', 'B':
			if v, ok := nextVal(); ok {
				sb.WriteString(v.BinString())
			}
		case 'h', 'H', 'x', 'X':
			if v, ok := nextVal(); ok {
				sb.WriteString(v.HexString())
			}
		case 'o', 'O':
			if v, ok := nextVal(); ok {
				sb.WriteString(strconv.FormatUint(mustU64(v), 8))
			}
		case 't', 'T':
			if v, ok := nextVal(); ok {
				sb.WriteString(v.DecString())
			}
		case 'c':
			if v, ok := nextVal(); ok {
				sb.WriteByte(byte(mustU64(v)))
			}
		case 's':
			if argi < len(args) {
				if str, ok := args[argi].(*vlog.Str); ok {
					sb.WriteString(str.Text)
					argi++
					break
				}
			}
			if v, ok := nextVal(); ok {
				sb.WriteString(v.DecString())
			}
		case 'm':
			sb.WriteString(in.Path)
		default:
			sb.WriteByte('%')
			sb.WriteByte(spec)
		}
	}
}

func mustU64(v vnum.Value) uint64 {
	u, _ := v.Uint64()
	return u
}

// ---- lvalue writes --------------------------------------------------------

// lvalueWidth returns the width of an assignment target (for RHS context),
// memoized in compiled mode — declaration widths and part-select bounds
// are static per instance.
func (s *Simulator) lvalueWidth(lhs vlog.Expr, in *elab.Inst) int {
	if s.opts.Interpret {
		return s.lvalueWidthUncached(lhs, in)
	}
	k := exprScope{e: lhs, in: in}
	if w, ok := s.lvwMemo[k]; ok {
		return w
	}
	w := s.lvalueWidthUncached(lhs, in)
	s.lvwMemo[k] = w
	return w
}

func (s *Simulator) lvalueWidthUncached(lhs vlog.Expr, in *elab.Inst) int {
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
		msb, lsb, ok := s.constBounds(n, in)
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
				iv := s.eval(n.I, in, 0)
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
				iv := s.eval(n.I, in, 0)
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
		msb, lsb, okc := s.constBounds(n, in)
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

// scheduleNBA captures the target location now and applies the update in
// the NBA region.
func (s *Simulator) scheduleNBA(lhs vlog.Expr, in *elab.Inst, v vnum.Value) {
	s.nba = append(s.nba, nbaUpdate{apply: func() {
		s.writeLValue(lhs, in, v, true)
	}})
}

// noteBlock increments the per-process block counter.
func (p *process) noteBlock() { p.blockCount++ }
