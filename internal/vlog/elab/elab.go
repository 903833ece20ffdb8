// Package elab elaborates a parsed Verilog source file into a hierarchical
// design: it binds parameters, resolves declarations into signals and
// memories, expands module instantiations into implicit port connections,
// and performs the semantic legality checks that constitute the "compile"
// verdict in the evaluation pipeline (mirroring the checks Icarus Verilog
// applies to the paper's generated completions).
package elab

import (
	"fmt"

	"repro/internal/vlog"
	"repro/internal/vnum"
)

// Error is an elaboration (semantic) error.
type Error struct {
	Pos vlog.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: elaboration error: %s", e.Pos, e.Msg) }

func errf(pos vlog.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Signal is an elaborated scalar or vector net/variable.
type Signal struct {
	Name   string
	Width  int
	MSB    int
	LSB    int
	Signed bool
	IsReg  bool
	Dir    vlog.Direction // DirNone for internal signals
}

// Offset maps a declared bit index to a zero-based storage offset, and
// reports whether the index is inside the declared range.
func (s *Signal) Offset(i int) (int, bool) {
	if s.MSB >= s.LSB {
		if i < s.LSB || i > s.MSB {
			return 0, false
		}
		return i - s.LSB, true
	}
	if i < s.MSB || i > s.LSB {
		return 0, false
	}
	return s.LSB - i, true
}

// Mem is an elaborated memory (array of words).
type Mem struct {
	Name   string
	Width  int // word width
	MSB    int
	LSB    int
	Signed bool
	Depth  int
	AddrLo int // lowest declared address
}

// WordIndex maps a declared address to a storage index.
func (m *Mem) WordIndex(addr int) (int, bool) {
	idx := addr - m.AddrLo
	if idx < 0 || idx >= m.Depth {
		return 0, false
	}
	return idx, true
}

// ProcKind distinguishes always and initial processes.
type ProcKind int

// Process kinds.
const (
	ProcAlways ProcKind = iota
	ProcInitial
)

// Proc is an elaborated behavioural process.
type Proc struct {
	Kind  ProcKind
	Body  vlog.Stmt
	Scope *Inst
}

// CA is an elaborated continuous assignment. For port connections the two
// sides live in different instances, hence separate scopes.
type CA struct {
	LHS    vlog.Expr
	RHS    vlog.Expr
	LScope *Inst
	RScope *Inst
}

// Inst is one elaborated module instance.
type Inst struct {
	Path     string // hierarchical path, e.g. "tb.dut"
	Mod      *vlog.Module
	Params   map[string]vnum.Value
	Signals  map[string]*Signal
	Mems     map[string]*Mem
	Children []*Inst
}

// RegInit is a declaration-time initializer for a variable (reg r = 0;),
// applied once before simulation time 0.
type RegInit struct {
	Scope *Inst
	Name  string
	Value vlog.Expr
}

// Design is a fully elaborated hierarchy rooted at Top: each Inst owns
// its Children, and the Assigns, Procs and RegInits streams are in
// elaboration order. It is immutable once Elaborate returns, so
// simulators may share it.
type Design struct {
	Top      *Inst
	Assigns  []*CA
	Procs    []*Proc
	RegInits []*RegInit
}

// Elaboration limits: a hierarchy of more than maxInstances instances,
// or a memory deeper than maxMemWords words, is an error.
const (
	maxInstances = 4096
	maxMemWords  = 1 << 20
)

// Options is empty: the elaboration limits are the constants above. The
// type stays because the benchmark harness (bench/, its own module)
// passes Options{}; deleting it waits on a change to that harness.
type Options struct{}

type elaborator struct {
	file  *vlog.SourceFile
	count int
	d     *Design
}

// Elaborate builds the design rooted at module top.
func Elaborate(file *vlog.SourceFile, top string, _ Options) (*Design, error) {
	m := file.FindModule(top)
	if m == nil {
		return nil, errf(vlog.Pos{Line: 1, Col: 1}, "top module %q not found", top)
	}
	e := &elaborator{file: file, d: &Design{}}
	inst, err := e.instantiate(m, top, nil, map[string]bool{})
	if err != nil {
		return nil, err
	}
	e.d.Top = inst
	return e.d, nil
}

// CompileCheck elaborates every module in the file standalone (each as its
// own top). It reports the first error, or nil when the file "compiles".
func CompileCheck(file *vlog.SourceFile) error {
	for _, m := range file.Modules {
		if _, err := Elaborate(file, m.Name, Options{}); err != nil {
			return err
		}
	}
	return nil
}

// instantiate elaborates module m as an instance named path, with parameter
// overrides already evaluated by the parent.
func (e *elaborator) instantiate(m *vlog.Module, path string, overrides map[string]vnum.Value, active map[string]bool) (*Inst, error) {
	if active[m.Name] {
		return nil, errf(m.Pos, "recursive instantiation of module %q", m.Name)
	}
	active[m.Name] = true
	defer delete(active, m.Name)

	e.count++
	if e.count > maxInstances {
		return nil, errf(m.Pos, "design exceeds instance limit")
	}

	inst := &Inst{
		Path:    path,
		Mod:     m,
		Params:  map[string]vnum.Value{},
		Signals: map[string]*Signal{},
		Mems:    map[string]*Mem{},
	}

	// Pass 1: parameters (in declaration order; later params may reference
	// earlier ones).
	for _, it := range m.Items {
		pd, ok := it.(*vlog.ParamDecl)
		if !ok {
			continue
		}
		for _, pa := range pd.Params {
			if ov, ok := overrides[pa.Name]; ok && !pd.Local {
				inst.Params[pa.Name] = ov
				continue
			}
			v, err := e.constEval(pa.Value, inst)
			if err != nil {
				return nil, err
			}
			inst.Params[pa.Name] = v
		}
	}
	for name := range overrides {
		if _, ok := inst.Params[name]; !ok {
			return nil, errf(m.Pos, "module %q has no parameter %q", m.Name, name)
		}
	}

	// Pass 2: declarations. Port and net declarations of the same name are
	// merged (non-ANSI "output x; reg x;" style).
	if err := e.collectDecls(m, inst); err != nil {
		return nil, err
	}

	// Every header port name must have a declaration.
	for _, pn := range m.PortNames {
		s, ok := inst.Signals[pn]
		if !ok {
			return nil, errf(m.Pos, "port %q has no declaration in module %q", pn, m.Name)
		}
		if s.Dir == vlog.DirNone {
			return nil, errf(m.Pos, "port %q of module %q lacks a direction", pn, m.Name)
		}
	}

	// Pass 3: behaviour and children.
	for _, it := range m.Items {
		switch n := it.(type) {
		case *vlog.ContAssign:
			for _, a := range n.Assigns {
				if err := e.checkContAssign(a, inst); err != nil {
					return nil, err
				}
				e.d.Assigns = append(e.d.Assigns, &CA{LHS: a.LHS, RHS: a.RHS, LScope: inst, RScope: inst})
			}
		case *vlog.AlwaysBlock:
			if err := e.checkStmt(n.Body, inst, true); err != nil {
				return nil, err
			}
			e.d.Procs = append(e.d.Procs, &Proc{Kind: ProcAlways, Body: n.Body, Scope: inst})
		case *vlog.InitialBlock:
			if err := e.checkStmt(n.Body, inst, true); err != nil {
				return nil, err
			}
			e.d.Procs = append(e.d.Procs, &Proc{Kind: ProcInitial, Body: n.Body, Scope: inst})
		case *vlog.Instance:
			child, err := e.elabChild(n, inst, active)
			if err != nil {
				return nil, err
			}
			inst.Children = append(inst.Children, child)
		case *vlog.NetDecl:
			// wire w = expr; initializers become continuous assignments,
			// reg r = expr; initializers apply once at time zero
			for _, dn := range n.Names {
				if dn.Init == nil {
					continue
				}
				if err := e.checkExpr(dn.Init, inst); err != nil {
					return nil, err
				}
				if n.Kind == vlog.KindWire {
					lhs := &vlog.Ident{Pos: dn.Pos, Name: dn.Name}
					e.d.Assigns = append(e.d.Assigns, &CA{LHS: lhs, RHS: dn.Init, LScope: inst, RScope: inst})
				} else {
					e.d.RegInits = append(e.d.RegInits, &RegInit{Scope: inst, Name: dn.Name, Value: dn.Init})
				}
			}
		}
	}
	return inst, nil
}

func (e *elaborator) collectDecls(m *vlog.Module, inst *Inst) error {
	for _, it := range m.Items {
		switch n := it.(type) {
		case *vlog.PortDecl:
			for _, dn := range n.Names {
				w, msb, lsb, err := e.rangeOf(n.Range, inst)
				if err != nil {
					return err
				}
				if err := e.mergeSignal(inst, dn.Pos, &Signal{
					Name: dn.Name, Width: w, MSB: msb, LSB: lsb,
					Signed: n.Signed, IsReg: n.IsReg, Dir: n.Dir,
				}, n.Range != nil); err != nil {
					return err
				}
			}
		case *vlog.NetDecl:
			for _, dn := range n.Names {
				if dn.ArrayRange != nil {
					if n.Kind != vlog.KindReg {
						return errf(dn.Pos, "memory %q must be declared reg", dn.Name)
					}
					w, msb, lsb, err := e.rangeOf(n.Range, inst)
					if err != nil {
						return err
					}
					alo, ahi, err := e.rangeBounds(dn.ArrayRange, inst)
					if err != nil {
						return err
					}
					depth := ahi - alo + 1
					if depth > maxMemWords {
						return errf(dn.Pos, "memory %q too large (%d words)", dn.Name, depth)
					}
					if _, dup := inst.Mems[dn.Name]; dup {
						return errf(dn.Pos, "duplicate declaration of %q", dn.Name)
					}
					if _, dup := inst.Signals[dn.Name]; dup {
						return errf(dn.Pos, "duplicate declaration of %q", dn.Name)
					}
					inst.Mems[dn.Name] = &Mem{
						Name: dn.Name, Width: w, MSB: msb, LSB: lsb,
						Signed: n.Signed, Depth: depth, AddrLo: alo,
					}
					continue
				}
				var sig Signal
				switch n.Kind {
				case vlog.KindInteger:
					sig = Signal{Name: dn.Name, Width: 32, MSB: 31, LSB: 0, Signed: true, IsReg: true}
				default:
					w, msb, lsb, err := e.rangeOf(n.Range, inst)
					if err != nil {
						return err
					}
					sig = Signal{
						Name: dn.Name, Width: w, MSB: msb, LSB: lsb,
						Signed: n.Signed, IsReg: n.Kind == vlog.KindReg,
					}
				}
				if err := e.mergeSignal(inst, dn.Pos, &sig, n.Range != nil || n.Kind == vlog.KindInteger); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// mergeSignal inserts a declaration, merging port and net declarations of
// the same name (direction from the port, reg-ness from either).
func (e *elaborator) mergeSignal(inst *Inst, pos vlog.Pos, s *Signal, hasRange bool) error {
	if _, isMem := inst.Mems[s.Name]; isMem {
		return errf(pos, "duplicate declaration of %q", s.Name)
	}
	if s.Dir == vlog.DirInput && s.IsReg {
		return errf(pos, "input port %q cannot be a reg", s.Name)
	}
	old, ok := inst.Signals[s.Name]
	if !ok {
		inst.Signals[s.Name] = s
		return nil
	}
	// merging rules: at most one port decl and one net decl
	if old.Dir != vlog.DirNone && s.Dir != vlog.DirNone {
		return errf(pos, "duplicate port declaration of %q", s.Name)
	}
	if old.Dir == vlog.DirNone && s.Dir == vlog.DirNone {
		return errf(pos, "duplicate declaration of %q", s.Name)
	}
	merged := &Signal{Name: s.Name}
	port, net := old, s
	if s.Dir != vlog.DirNone {
		port, net = s, old
	}
	merged.Dir = port.Dir
	merged.IsReg = port.IsReg || net.IsReg
	merged.Signed = port.Signed || net.Signed
	if port.Width != net.Width && port.Width != 1 && net.Width != 1 {
		return errf(pos, "conflicting widths for %q (%d vs %d)", s.Name, port.Width, net.Width)
	}
	if net.Width != 1 {
		merged.Width, merged.MSB, merged.LSB = net.Width, net.MSB, net.LSB
	} else {
		merged.Width, merged.MSB, merged.LSB = port.Width, port.MSB, port.LSB
	}
	if merged.Dir == vlog.DirInput && merged.IsReg {
		return errf(pos, "input port %q cannot be a reg", s.Name)
	}
	inst.Signals[s.Name] = merged
	return nil
}

func (e *elaborator) rangeOf(r *vlog.RangeSpec, inst *Inst) (width, msb, lsb int, err error) {
	if r == nil {
		return 1, 0, 0, nil
	}
	mv, err := e.constEval(r.MSB, inst)
	if err != nil {
		return 0, 0, 0, err
	}
	lv, err := e.constEval(r.LSB, inst)
	if err != nil {
		return 0, 0, 0, err
	}
	mi, ok1 := mv.Int64()
	li, ok2 := lv.Int64()
	if !ok1 || !ok2 {
		return 0, 0, 0, errf(r.Pos, "range bounds must be constant")
	}
	msb, lsb = int(mi), int(li)
	width = msb - lsb
	if width < 0 {
		width = -width
	}
	width++
	if width > 1<<16 {
		return 0, 0, 0, errf(r.Pos, "vector too wide (%d bits)", width)
	}
	return width, msb, lsb, nil
}

// rangeBounds returns lo/hi of an array range.
func (e *elaborator) rangeBounds(r *vlog.RangeSpec, inst *Inst) (lo, hi int, err error) {
	mv, err := e.constEval(r.MSB, inst)
	if err != nil {
		return 0, 0, err
	}
	lv, err := e.constEval(r.LSB, inst)
	if err != nil {
		return 0, 0, err
	}
	mi, ok1 := mv.Int64()
	li, ok2 := lv.Int64()
	if !ok1 || !ok2 {
		return 0, 0, errf(r.Pos, "array bounds must be constant")
	}
	lo, hi = int(mi), int(li)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi, nil
}

func (e *elaborator) elabChild(n *vlog.Instance, parent *Inst, active map[string]bool) (*Inst, error) {
	childMod := e.file.FindModule(n.Module)
	if childMod == nil {
		return nil, errf(n.Pos, "unknown module %q", n.Module)
	}
	// parameter overrides, evaluated in the parent scope
	overrides := map[string]vnum.Value{}
	var paramOrder []string
	for _, it := range childMod.Items {
		if pd, ok := it.(*vlog.ParamDecl); ok && !pd.Local {
			for _, pa := range pd.Params {
				paramOrder = append(paramOrder, pa.Name)
			}
		}
	}
	for i, pc := range n.Params {
		v, err := e.constEval(pc.Expr, parent)
		if err != nil {
			return nil, err
		}
		name := pc.Name
		if name == "" {
			if i >= len(paramOrder) {
				return nil, errf(pc.Pos, "too many parameter overrides for module %q", n.Module)
			}
			name = paramOrder[i]
		}
		overrides[name] = v
	}

	child, err := e.instantiate(childMod, parent.Path+"."+n.Name, overrides, active)
	if err != nil {
		return nil, err
	}

	// port connections
	conns := n.Conns
	named := len(conns) > 0 && conns[0].Name != ""
	for _, c := range conns {
		if (c.Name != "") != named {
			return nil, errf(c.Pos, "cannot mix named and positional connections")
		}
	}
	if !named && len(conns) > len(childMod.PortNames) {
		return nil, errf(n.Pos, "too many port connections for module %q (%d > %d)",
			n.Module, len(conns), len(childMod.PortNames))
	}
	seen := map[string]bool{}
	for i, c := range conns {
		portName := c.Name
		if !named {
			portName = childMod.PortNames[i]
		}
		if seen[portName] {
			return nil, errf(c.Pos, "port %q connected twice", portName)
		}
		seen[portName] = true
		port, ok := child.Signals[portName]
		if !ok || port.Dir == vlog.DirNone {
			return nil, errf(c.Pos, "module %q has no port %q", n.Module, portName)
		}
		if c.Expr == nil {
			continue // explicitly unconnected
		}
		if err := e.checkExpr(c.Expr, parent); err != nil {
			return nil, err
		}
		portRef := &vlog.Ident{Pos: c.Pos, Name: portName}
		switch port.Dir {
		case vlog.DirInput:
			if port.IsReg {
				return nil, errf(c.Pos, "input port %q cannot be a reg", portName)
			}
			e.d.Assigns = append(e.d.Assigns, &CA{LHS: portRef, RHS: c.Expr, LScope: child, RScope: parent})
		case vlog.DirOutput:
			if err := e.checkLValue(c.Expr, parent, false); err != nil {
				return nil, errf(c.Pos, "output port %q must connect to a net lvalue: %v", portName, err)
			}
			e.d.Assigns = append(e.d.Assigns, &CA{LHS: c.Expr, RHS: portRef, LScope: parent, RScope: child})
		default:
			return nil, errf(c.Pos, "inout ports are not supported (port %q)", portName)
		}
	}
	return child, nil
}
