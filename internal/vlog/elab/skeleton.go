package elab

import (
	"sort"

	"repro/internal/vlog"
)

// This file implements the elaborate-once/splice-many split. The verdict
// path elaborates every candidate in full; NewSkeleton, Splice and
// HoleModules stay only for bench/trace.go's stage replay, until the
// next change to the benchmark drops them.
//
// A testbench is elaborated into a Skeleton exactly once per (problem,
// level): every module defined by the testbench file is fully bound,
// parameters folded, and port shapes resolved, while instantiations of
// "hole" modules (the candidate's modules, absent from the testbench
// file) are deferred with enough bookkeeping to replay them
// later. Splice then binds one candidate file against the skeleton,
// re-running only the deferred instantiations, and produces a Design that
// is structurally identical — same stream order of Assigns/Procs/RegInits,
// same instance paths, same error condition — to a full
// Elaborate(Compose(candidate, testbench)) call.
//
// Spliced designs share the skeleton's Inst objects, which is what makes
// compiled-plan sharing across candidates possible: plan cache keys are
// (expr, inst) pairs, and both stay pointer-stable for the testbench cone.
// Shared Insts are never mutated after the skeleton is built; in
// particular a spliced child is never appended to its parent's Children —
// the merged order lives in the Design's children map, read through
// Design.ChildrenOf.

// deferredHole records one skipped hole instantiation: where it sits in
// the parent's child order, where the elaboration streams stood when it
// was skipped, and the recursion-guard state it would have seen.
type deferredHole struct {
	node     *vlog.Instance
	parent   *Inst
	childIdx int // len(parent.Children) at deferral time
	aLen     int // len(d.Assigns) at deferral time
	pLen     int // len(d.Procs) at deferral time
	rLen     int // len(d.RegInits) at deferral time
	active   []string
}

// deferHole snapshots the elaboration state for a hole instantiation. The
// recursion-guard set is sorted so the snapshot is deterministic; it is
// rebuilt into a set before use, so order carries no meaning.
func (e *elaborator) deferHole(n *vlog.Instance, parent *Inst, active map[string]bool) {
	snap := make([]string, 0, len(active))
	for name := range active {
		snap = append(snap, name)
	}
	sort.Strings(snap)
	e.deferred = append(e.deferred, deferredHole{
		node:     n,
		parent:   parent,
		childIdx: len(parent.Children),
		aLen:     len(e.d.Assigns),
		pLen:     len(e.d.Procs),
		rLen:     len(e.d.RegInits),
		active:   snap,
	})
}

// Skeleton is a testbench elaborated once with its candidate-module
// instantiations deferred. It is immutable after NewSkeleton returns and
// safe for concurrent Splice calls.
type Skeleton struct {
	file  *vlog.SourceFile
	top   string
	d     *Design
	count int
	holes []deferredHole
	bound map[string]bool // module names the skeleton resolved (read-only)
}

// NewSkeleton elaborates the testbench file down to the given hole module
// names. Hole instantiations are deferred; everything else is fully
// elaborated and checked. An error means the testbench cannot be
// skeletonized (callers fall back to full elaboration). Its one shipped
// caller is bench/trace.go's stage replay.
func NewSkeleton(file *vlog.SourceFile, top string, holes []string, _ Options) (*Skeleton, error) {
	m := file.FindModule(top)
	if m == nil {
		return nil, errf(vlog.Pos{Line: 1, Col: 1}, "top module %q not found", top)
	}
	holeSet := make(map[string]bool, len(holes))
	for _, h := range holes {
		holeSet[h] = true
	}
	e := &elaborator{
		file:  file,
		d:     &Design{},
		holes: holeSet,
		bound: map[string]bool{top: true},
	}
	inst, err := e.instantiate(m, top, nil, nil, map[string]bool{})
	if err != nil {
		return nil, err
	}
	e.d.Top = inst
	return &Skeleton{
		file:  file,
		top:   top,
		d:     e.d,
		count: e.count,
		holes: e.deferred,
		bound: e.bound,
	}, nil
}

// SpliceSite records where a candidate subtree was bound into the shared
// skeleton hierarchy: Child belongs before the Parent's Index-th skeleton
// child in the merged order.
type SpliceSite struct {
	Parent *Inst
	Index  int
	Child  *Inst
}

// Splice binds one candidate file against the skeleton and returns the
// composed Design. The result is identical to
// Elaborate(Compose(cand, testbench), top, Options{}): skeleton stream segments
// are interleaved with each hole's contributions at the exact positions
// full elaboration would have produced them, and the instance-count limit
// resumes from the skeleton's total so the success condition matches. Any
// error (including a candidate module shadowing a name the skeleton
// already bound, which full elaboration would have resolved differently)
// means the caller must fall back to full elaboration. Its one shipped
// caller is bench/trace.go's stage replay.
func (sk *Skeleton) Splice(cand *vlog.SourceFile) (*Design, error) {
	for _, m := range cand.Modules {
		if sk.bound[m.Name] {
			return nil, errf(m.Pos, "candidate module %q shadows a testbench binding", m.Name)
		}
	}
	e := &elaborator{
		file:  vlog.Compose(cand, sk.file),
		count: sk.count,
		d:     &Design{},
	}
	d := e.d
	prevA, prevP, prevR := 0, 0, 0
	sites := make([]SpliceSite, 0, len(sk.holes))
	for _, h := range sk.holes {
		d.Assigns = append(d.Assigns, sk.d.Assigns[prevA:h.aLen]...)
		d.Procs = append(d.Procs, sk.d.Procs[prevP:h.pLen]...)
		d.RegInits = append(d.RegInits, sk.d.RegInits[prevR:h.rLen]...)
		prevA, prevP, prevR = h.aLen, h.pLen, h.rLen
		active := make(map[string]bool, len(h.active)+4)
		for _, name := range h.active {
			active[name] = true
		}
		child, err := e.elabChild(h.node, h.parent, active)
		if err != nil {
			return nil, err
		}
		sites = append(sites, SpliceSite{Parent: h.parent, Index: h.childIdx, Child: child})
	}
	d.Assigns = append(d.Assigns, sk.d.Assigns[prevA:]...)
	d.Procs = append(d.Procs, sk.d.Procs[prevP:]...)
	d.RegInits = append(d.RegInits, sk.d.RegInits[prevR:]...)
	d.Top = sk.d.Top
	d.Splices = sites
	d.buildChildren()
	return d, nil
}

// buildChildren precomputes the merged child order for every parent with
// splice sites. Built once at splice time and read-only afterwards, so
// concurrent simulations of the same Design need no synchronization.
func (d *Design) buildChildren() {
	if len(d.Splices) == 0 {
		return
	}
	type group struct {
		parent *Inst
		sites  []SpliceSite
	}
	var groups []group
	idx := make(map[*Inst]int, len(d.Splices))
	for _, s := range d.Splices {
		gi, ok := idx[s.Parent]
		if !ok {
			gi = len(groups)
			idx[s.Parent] = gi
			groups = append(groups, group{parent: s.Parent})
		}
		groups[gi].sites = append(groups[gi].sites, s)
	}
	d.children = make(map[*Inst][]*Inst, len(groups))
	for _, g := range groups {
		skel := g.parent.Children
		merged := make([]*Inst, 0, len(skel)+len(g.sites))
		si := 0
		for k := 0; k <= len(skel); k++ {
			for si < len(g.sites) && g.sites[si].Index == k {
				merged = append(merged, g.sites[si].Child)
				si++
			}
			if k < len(skel) {
				merged = append(merged, skel[k])
			}
		}
		d.children[g.parent] = merged
	}
}

// ChildrenOf returns the instance's children in elaboration order. For
// spliced designs the shared skeleton Inst does not own its spliced
// children, so consumers must resolve child lists through the Design.
func (d *Design) ChildrenOf(in *Inst) []*Inst {
	if d.children != nil {
		if kids, ok := d.children[in]; ok {
			return kids
		}
	}
	return in.Children
}

// HoleModules returns, in first-reference order, the module names the
// file instantiates but does not define — the holes a candidate file is
// expected to fill. Its one shipped caller is bench/trace.go's stage
// replay.
func HoleModules(file *vlog.SourceFile) []string {
	var holes []string
	seen := map[string]bool{}
	for _, m := range file.Modules {
		for _, it := range m.Items {
			n, ok := it.(*vlog.Instance)
			if !ok {
				continue
			}
			if seen[n.Module] || file.FindModule(n.Module) != nil {
				continue
			}
			seen[n.Module] = true
			holes = append(holes, n.Module)
		}
	}
	return holes
}
