// Package sim implements an event-driven four-state simulator for
// elaborated Verilog designs. It follows the IEEE 1364 stratified event
// queue: an active region, an inactive (#0) region, a nonblocking-update
// region, and a time wheel for future events. Behavioural processes run as
// iter.Pull coroutines: the scheduler switches directly into a process and
// the process switches back when it blocks, one side running at a time, so
// simulation is fully deterministic.
//
// In the reproduction pipeline this package plays the role Icarus Verilog
// plays in the paper: it executes each problem's test bench against a
// candidate completion and produces the output the harness inspects for
// the functional-correctness verdict.
package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"repro/internal/vcd"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
	"repro/internal/vnum"
)

// Limit errors reported by Run.
var (
	// ErrTimeLimit is returned when simulated time exceeds Options.MaxTime.
	ErrTimeLimit = errors.New("sim: simulation time limit exceeded")
	// ErrStepLimit is returned when the statement/evaluation budget is
	// exhausted (runaway loops in generated code).
	ErrStepLimit = errors.New("sim: execution step limit exceeded")
	// ErrOutputLimit is returned when simulation output exceeds the cap.
	ErrOutputLimit = errors.New("sim: output limit exceeded")
)

// RuntimeError is a fatal runtime condition (e.g. an always block that can
// never block again).
type RuntimeError struct {
	Pos vlog.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg) }

// InternalError is a panic inside the simulator that is not part of its
// own control flow: a bug, not a property of the design. Run returns it
// instead of crashing the caller; the simulator that raised it should not
// be reused.
type InternalError struct {
	Value any    // the recovered panic value
	Stack []byte // the stack where it was recovered
}

func (e *InternalError) Error() string { return fmt.Sprintf("sim: internal error: %v", e.Value) }

// Run limits: a simulation that executes more than maxSteps statements
// and evaluations fails with ErrStepLimit, and one whose captured
// $display output would pass maxOutput bytes fails with ErrOutputLimit.
const (
	maxSteps  = 2_000_000
	maxOutput = 1 << 20
)

// Options configure a simulation run.
type Options struct {
	MaxTime    uint64 // simulated time horizon; 0 = 10_000_000
	RandomSeed int64  // seed for $random; 0 = 1
	DumpVCD    bool   // record a waveform from time 0 ($dumpvars also enables this at runtime)

	// Interpret executes statements and expressions by AST
	// interpretation instead of bound statement closures and compiled
	// plans. The two engines are bit-for-bit equivalent; the interpreter
	// exists as the differential baseline and for debugging.
	Interpret bool

	// Plans is read by nothing: every simulator compiles its own plans.
	// It stays, with PlanCache and NewPlanCache, only because
	// bench/trace.go's stage replay sets it, until the next change to the
	// benchmark deletes all three.
	Plans *PlanCache
}

// PlanCache holds nothing; see Options.Plans.
type PlanCache struct{}

// NewPlanCache returns a PlanCache; the budget is ignored.
func NewPlanCache(int64) *PlanCache { return &PlanCache{} }

func (o Options) maxTime() uint64 {
	if o.MaxTime == 0 {
		return 10_000_000
	}
	return o.MaxTime
}

// Result summarizes a completed simulation.
type Result struct {
	Output   string // captured $display/$write text
	Time     uint64 // final simulation time
	Finished bool   // true if $finish executed
	Steps    int    // statements + evaluations executed
	VCD      string // waveform dump, when enabled
}

// sigState is the runtime state of one signal.
type sigState struct {
	decl  *elab.Signal
	scope *elab.Inst
	val   vnum.Value
	// watchers notified on value changes
	cas   []*caState
	waits []*waitReg
}

// memState is the runtime state of one memory.
type memState struct {
	decl  *elab.Mem
	words []vnum.Value
}

// caState is a continuous assignment plus its cached dependency list and,
// in compiled mode, its bound RHS plan and target writer.
type caState struct {
	ca     *elab.CA
	queued bool
	rhs    compiledExpr
	write  compiledWrite
}

// waitReg links a blocked process to the signals it watches.
type waitReg struct {
	proc      *process
	items     []waitItem
	level     vlog.Expr    // non-nil for wait(cond)
	levelPlan compiledExpr // bound level condition, nil under Interpret
	scope     *elab.Inst
	active    bool
}

// waitItem is one event-control term with its last sampled value. plan is
// the bound expression plan (nil under Interpret, which evaluates expr).
type waitItem struct {
	edge vlog.EdgeKind
	expr vlog.Expr
	plan compiledExpr
	last vnum.Value
}

// Simulator executes one elaborated design.
type Simulator struct {
	design *elab.Design
	opts   Options

	signals map[*elab.Inst]map[string]*sigState
	mems    map[*elab.Inst]map[string]*memState
	cas     []*caState
	procs   []*process

	time       uint64
	active     []activation
	activeHead int // consumed prefix of active; avoids reslicing away capacity
	inactive   []activation
	nba        []nbaUpdate
	future     futureQueue

	out       *[]byte // captured output, from outBufs on the first line; nil after Run
	line      []byte  // one display line being formatted, reused across lines
	steps     int
	finished  bool
	rng       uint64
	futureSeq int

	wave      *vcd.Writer
	waveIDs   map[*sigState]string
	waveOrder []*sigState

	monitor *monitorState

	// starCache holds the @* sensitivity list per event control, as stable
	// synthesized Ident nodes, so the interpreter does not rebuild it on
	// every block.
	starCache map[*vlog.EventCtrl][]*vlog.Ident

	// binds counts process statements lowered to bound closures (see
	// stmt.go), and compiles the expression plans compiled for them;
	// both stay 0 under Options.Interpret.
	binds    int
	compiles int
}

// activation is one schedulable work item in the active region.
type activation struct {
	ca   *caState
	proc *process
}

// nbaUpdate is one queued nonblocking assignment: the value, computed
// when the assignment executed, and the target's writer, which evaluates
// any index expressions when the update is applied.
type nbaUpdate struct {
	write compiledWrite
	v     vnum.Value
}

// monitorState implements $monitor: at the end of every time step in
// which any monitored value changed, the format line prints again
// (postponed region of the stratified queue).
type monitorState struct {
	// trig evaluates the arguments that take part in change detection:
	// every argument except string literals and $time/$stime (the time
	// advancing does not by itself re-trigger a monitor)
	trig []compiledExpr
	// line appends the formatted line, without its newline
	line      func([]byte) []byte
	last, cur []vnum.Value
	fresh     bool
}

// monitorTrigger reports whether a $monitor argument takes part in change
// detection (see monitorState.trig).
func monitorTrigger(a vlog.Expr) bool {
	switch n := a.(type) {
	case *vlog.Str:
		return false
	case *vlog.SysCallExpr:
		return n.Name != "$time" && n.Name != "$stime"
	}
	return true
}

// futureEntry is a time-wheel slot.
type futureEntry struct {
	time uint64
	seq  int
	act  activation
}

// futureQueue is the time wheel: a binary min-heap of entries by (time,
// seq), held by value so scheduling allocates nothing once the backing
// array has grown. seq is unique, so the pop order is total.
type futureQueue []futureEntry

func (q futureQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *futureQueue) push(e futureEntry) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *futureQueue) pop() futureEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = futureEntry{}
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}

// New prepares a simulator for the design.
func New(d *elab.Design, opts Options) *Simulator {
	s := &Simulator{
		design:    d,
		opts:      opts,
		signals:   map[*elab.Inst]map[string]*sigState{},
		mems:      map[*elab.Inst]map[string]*memState{},
		rng:       uint64(opts.RandomSeed),
		starCache: map[*vlog.EventCtrl][]*vlog.Ident{},
	}
	if s.rng == 0 {
		s.rng = 1
	}
	s.initInstance(d.Top)
	for _, ca := range d.Assigns {
		cs := &caState{ca: ca}
		s.cas = append(s.cas, cs)
		s.registerCADeps(cs)
	}
	for _, p := range d.Procs {
		s.procs = append(s.procs, newProcess(s, p))
	}
	return s
}

// registerCADeps subscribes a continuous assignment to every signal its
// right-hand side (and any lvalue index expressions) reads.
func (s *Simulator) registerCADeps(cs *caState) {
	deps := map[*sigState]bool{}
	for _, name := range collectIdents(cs.ca.RHS, nil) {
		if st := s.sig(cs.ca.RScope, name); st != nil {
			deps[st] = true
		}
	}
	// index expressions on the LHS are reads too, but the written signal
	// itself must not retrigger its own driver
	var writtenName string
	if id, ok := rootIdent(cs.ca.LHS); ok {
		writtenName = id
	}
	for _, name := range lvalueReadIdents(cs.ca.LHS) {
		if name == writtenName {
			continue
		}
		if st := s.sig(cs.ca.LScope, name); st != nil {
			deps[st] = true
		}
	}
	for st := range deps {
		st.cas = append(st.cas, cs)
	}
}

func (s *Simulator) initInstance(in *elab.Inst) {
	sigs := map[string]*sigState{}
	for name, decl := range in.Signals {
		v := vnum.AllX(decl.Width)
		if decl.Signed {
			v = v.AsSigned()
		}
		sigs[name] = &sigState{decl: decl, scope: in, val: v}
	}
	s.signals[in] = sigs
	mems := map[string]*memState{}
	for name, decl := range in.Mems {
		words := make([]vnum.Value, decl.Depth)
		for i := range words {
			w := vnum.AllX(decl.Width)
			if decl.Signed {
				w = w.AsSigned()
			}
			words[i] = w
		}
		mems[name] = &memState{decl: decl, words: words}
	}
	s.mems[in] = mems
	for _, c := range in.Children {
		s.initInstance(c)
	}
}

func (s *Simulator) sig(in *elab.Inst, name string) *sigState {
	return s.signals[in][name]
}

func (s *Simulator) mem(in *elab.Inst, name string) *memState {
	return s.mems[in][name]
}

// charge consumes one unit of the step budget.
func (s *Simulator) charge() {
	s.steps++
	if s.steps > maxSteps {
		panic(simAbort{err: ErrStepLimit})
	}
}

// simAbort unwinds a process or the scheduler on fatal conditions.
type simAbort struct {
	err error
}

// outBufs recycles output buffers across simulations: a run emits into a
// pooled buffer and copies it once into Result.Output, so the captured
// text is not allocated again at every growth of its buffer.
var outBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledOut caps the capacity of a buffer returned to outBufs, so a
// run that printed close to maxOutput does not keep a megabyte pooled.
const maxPooledOut = 64 << 10

// emit appends one formatted display line to the output. A line that
// would pass maxOutput fails the run with ErrOutputLimit and writes
// nothing.
func (s *Simulator) emit(text []byte) {
	if s.out == nil {
		s.out = outBufs.Get().(*[]byte)
	}
	if len(*s.out)+len(text) > maxOutput {
		panic(simAbort{err: ErrOutputLimit})
	}
	*s.out = append(*s.out, text...)
}

// releaseOut returns the output buffer to outBufs once Run has copied it.
func (s *Simulator) releaseOut() {
	if s.out == nil {
		return
	}
	if cap(*s.out) <= maxPooledOut {
		*s.out = (*s.out)[:0]
		outBufs.Put(s.out)
	}
	s.out = nil
}

// Run executes the simulation to completion ($finish, event starvation, or
// a limit). The Result is valid even when err is non-nil: it reflects the
// state at the point the limit fired. A panic that is not part of the
// simulator's control flow, in a process or in the scheduler, comes back
// as an *InternalError instead of crashing the caller.
func (s *Simulator) Run() (res Result, err error) {
	defer s.releaseOut()
	defer s.killAll()
	defer func() {
		if r := recover(); r != nil {
			res = s.result()
			if ab, ok := r.(simAbort); ok {
				err = ab.err
			} else {
				err = &InternalError{Value: r, Stack: debug.Stack()}
			}
		}
	}()

	if s.opts.DumpVCD {
		s.enableVCD()
	}

	// declaration-time reg initializers
	for _, ri := range s.design.RegInits {
		v, cerr := elab.ConstEval(ri.Value, ri.Scope)
		if cerr != nil {
			// non-constant initializers evaluate against initial state
			if s.opts.Interpret {
				v = s.evalInterp(ri.Value, ri.Scope, 0)
			} else {
				v = s.compile(ri.Value, ri.Scope, 0)()
			}
		}
		st := s.sig(ri.Scope, ri.Name)
		s.setSignal(st, v)
	}

	// schedule initial evaluation of every continuous assignment, then all
	// processes
	for _, ca := range s.cas {
		s.queueCA(ca)
	}
	for _, p := range s.procs {
		s.active = append(s.active, activation{proc: p})
	}

	for !s.finished {
		if s.activeHead > 0 && s.activeHead == len(s.active) {
			// drained: recycle the backing array instead of reslicing it away
			s.active = s.active[:0]
			s.activeHead = 0
		}
		switch {
		case s.activeHead < len(s.active):
			a := s.active[s.activeHead]
			s.activeHead++
			s.dispatch(a)
		case len(s.inactive) > 0:
			s.active = append(s.active, s.inactive...)
			s.inactive = s.inactive[:0]
		case len(s.nba) > 0:
			// applying an update only wakes processes and continuous
			// assignments; nothing queues another NBA until the active
			// region runs again, so the slice is reused in place
			for i, u := range s.nba {
				u.write(u.v)
				s.nba[i] = nbaUpdate{}
			}
			s.nba = s.nba[:0]
		case len(s.future) > 0:
			s.runMonitor() // postponed region: end of the current instant
			e := s.future.pop()
			if e.time > s.opts.maxTime() {
				return s.result(), ErrTimeLimit
			}
			s.time = e.time
			s.active = append(s.active, e.act)
			// pull everything else scheduled for the same instant
			for len(s.future) > 0 && s.future[0].time == e.time {
				s.active = append(s.active, s.future.pop().act)
			}
		default:
			s.runMonitor()
			return s.result(), nil // event starvation: normal end
		}
	}
	return s.result(), nil
}

// runMonitor prints the $monitor line when any monitored value changed
// since the last instant (or on first arming).
func (s *Simulator) runMonitor() {
	m := s.monitor
	if m == nil {
		return
	}
	// every trigger argument evaluates each instant, changed or not: an
	// argument may draw $random
	changed := m.fresh
	cur := m.cur[:0]
	for i, f := range m.trig {
		v := f()
		cur = append(cur, v)
		if !changed && !v.Equal(m.last[i]) {
			changed = true
		}
	}
	m.cur = cur
	if changed {
		s.line = append(m.line(s.line[:0]), '\n')
		s.emit(s.line)
		m.last, m.cur = m.cur, m.last
		m.fresh = false
	}
}

func (s *Simulator) result() Result {
	r := Result{Time: s.time, Finished: s.finished, Steps: s.steps}
	if s.out != nil {
		r.Output = string(*s.out)
	}
	if s.wave != nil {
		r.VCD = s.wave.String()
	}
	return r
}

// enableVCD starts waveform collection: declares every signal in the
// hierarchy and records current values at the current time.
func (s *Simulator) enableVCD() {
	if s.wave != nil {
		return
	}
	s.wave = vcd.NewWriter("1ns")
	s.waveIDs = map[*sigState]string{}
	var declare func(in *elab.Inst, name string)
	declare = func(in *elab.Inst, name string) {
		s.wave.BeginScope(name)
		names := make([]string, 0, len(s.signals[in]))
		for n := range s.signals[in] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st := s.signals[in][n]
			kind := "wire"
			if st.decl.IsReg {
				kind = "reg"
			}
			s.waveIDs[st] = s.wave.DeclareVar(kind, st.decl.Width, n)
			s.waveOrder = append(s.waveOrder, st)
		}
		for _, c := range in.Children {
			leaf := c.Path
			if i := strings.LastIndexByte(leaf, '.'); i >= 0 {
				leaf = leaf[i+1:]
			}
			declare(c, leaf)
		}
		s.wave.EndScope()
	}
	top := s.design.Top.Path
	if top == "" {
		top = s.design.Top.Mod.Name
	}
	declare(s.design.Top, top)
	s.wave.EndDefinitions()
	for _, st := range s.waveOrder {
		s.wave.Change(s.waveIDs[st], s.time, st.val.BinString())
	}
}

func (s *Simulator) dispatch(a activation) {
	if a.ca != nil {
		a.ca.queued = false
		s.evalCA(a.ca)
		return
	}
	if a.proc != nil && !a.proc.done {
		a.proc.stepOnce()
	}
}

// queueCA schedules a continuous assignment evaluation if not already
// pending.
func (s *Simulator) queueCA(ca *caState) {
	if ca.queued {
		return
	}
	ca.queued = true
	s.active = append(s.active, activation{ca: ca})
}

// scheduleFuture puts an activation on the time wheel at now+delay.
func (s *Simulator) scheduleFuture(delay uint64, act activation) {
	if delay == 0 {
		s.inactive = append(s.inactive, act)
		return
	}
	s.futureSeq++
	s.future.push(futureEntry{time: s.time + delay, seq: s.futureSeq, act: act})
}

// evalCA re-evaluates one continuous assignment and drives its target. In
// compiled mode the RHS plan and target writer bind on first evaluation
// and stick to the caState.
func (s *Simulator) evalCA(ca *caState) {
	s.charge()
	if s.opts.Interpret {
		w := s.lvalueWidth(ca.ca.LHS, ca.ca.LScope)
		v := s.evalInterp(ca.ca.RHS, ca.ca.RScope, w)
		s.writeLValue(ca.ca.LHS, ca.ca.LScope, v, false)
		return
	}
	if ca.rhs == nil {
		w := s.lvalueWidth(ca.ca.LHS, ca.ca.LScope)
		ca.rhs = s.compile(ca.ca.RHS, ca.ca.RScope, w)
		ca.write = s.bindLValue(ca.ca.LHS, ca.ca.LScope)
	}
	ca.write(ca.rhs())
}

// setSignal updates a signal value and propagates change events.
func (s *Simulator) setSignal(st *sigState, v vnum.Value) {
	// normalize to the declaration's width and signedness; values already
	// in shape (the common case with compiled plans) skip the clones —
	// Values are immutable, so sharing is safe
	if v.Width() != st.decl.Width {
		v = v.Resize(st.decl.Width)
	}
	if v.Signed() != st.decl.Signed {
		if st.decl.Signed {
			v = v.AsSigned()
		} else {
			v = v.AsUnsigned()
		}
	}
	if v.Equal(st.val) {
		return
	}
	st.val = v
	if s.wave != nil {
		if id, ok := s.waveIDs[st]; ok {
			s.wave.Change(id, s.time, v.BinString())
		}
	}
	// wake continuous assignments
	for _, ca := range st.cas {
		s.queueCA(ca)
	}
	// re-check blocked processes
	if len(st.waits) > 0 {
		regs := st.waits
		for _, wr := range regs {
			if wr.active {
				s.checkWait(wr)
			}
		}
		// compact dead registrations
		live := st.waits[:0]
		for _, wr := range regs {
			if wr.active {
				live = append(live, wr)
			}
		}
		st.waits = live
	}
}

// checkWait re-evaluates a blocked process's wait condition and wakes the
// process when it triggers.
func (s *Simulator) checkWait(wr *waitReg) {
	if wr.level != nil {
		var t bool
		if wr.levelPlan != nil {
			t = wr.levelPlan().IsTrue()
		} else {
			t = s.evalInterp(wr.level, wr.scope, 0).IsTrue()
		}
		if t {
			s.wake(wr)
		}
		return
	}
	for i := range wr.items {
		it := &wr.items[i]
		var now vnum.Value
		if it.plan != nil {
			now = it.plan()
		} else {
			now = s.evalInterp(it.expr, wr.scope, 0)
		}
		old := it.last
		it.last = now
		if triggered(it.edge, old, now) {
			s.wake(wr)
			return
		}
	}
}

// triggered implements the LRM edge tables on the LSB of the expression.
func triggered(edge vlog.EdgeKind, old, now vnum.Value) bool {
	if old.Equal(now) {
		return false
	}
	switch edge {
	case vlog.EdgeAny:
		return true
	case vlog.EdgePos:
		o, n := old.Bit(0), now.Bit(0)
		if o == n {
			return false
		}
		return (o == vnum.B0 && n != vnum.B0) || (o != vnum.B1 && n == vnum.B1)
	default: // EdgeNeg
		o, n := old.Bit(0), now.Bit(0)
		if o == n {
			return false
		}
		return (o == vnum.B1 && n != vnum.B1) || (o != vnum.B0 && n == vnum.B0)
	}
}

func (s *Simulator) wake(wr *waitReg) {
	if !wr.active {
		return
	}
	wr.active = false
	s.active = append(s.active, activation{proc: wr.proc})
}

// random is a xorshift64 $random (deterministic per seed).
func (s *Simulator) random() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

func (s *Simulator) killAll() {
	for _, p := range s.procs {
		p.kill()
	}
}
