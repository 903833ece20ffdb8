package sim

import (
	"repro/internal/bounded"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// PlanCache shares immutable compiled expression plans (elab.Plan trees)
// across Simulators. The verdict path does not use it: each of its
// simulators compiles its own plans. It stays, with Options.Plans, only
// for bench/trace.go's stage replay, until the next change to the
// benchmark drops it. Plans are pure functions of (expression node,
// instance, width, mode); AST nodes and skeleton-shared Inst objects are
// pointer-stable across evaluations of the same testbench, so worker N's
// simulation reuses the plan worker M compiled. Only the compile step is
// shared — binding a plan to runtime state (closures over *sigState)
// stays per-Simulator, so sharing cannot leak state between runs and the
// bound closure tree is identical whether the plan came from the cache or
// from a fresh CompileExpr call. Byte-identity of simulation output is
// therefore structural, not incidental.
//
// Plans and synthesized @* sensitivity lists share one bounded.Cache
// under one byte budget: the budget is a bound, not a profile. Evicting
// an entry another simulator still uses is harmless (plans are immutable;
// a later miss recompiles an equivalent plan), so eviction never affects
// output.
type PlanCache struct {
	c *bounded.Cache[sharedKey, sharedVal]
}

// sharedKey addresses a plan entry, or (when star is non-nil) a
// synthesized @* sensitivity list.
type sharedKey struct {
	pk   planKey
	star *vlog.EventCtrl
}

type sharedVal struct {
	plan *elab.Plan
	ids  []*vlog.Ident
}

// DefaultPlanCacheBytes is the default shared plan cache budget. Plan
// trees are small (a few hundred bytes each), so 4 MiB holds the
// compiled testbench cones of every problem/level plus a working set of
// candidate cones. The bound is kept modest on purpose: resident plan
// trees are pointer-dense and the collector re-marks them every cycle,
// so an oversized cache taxes the whole process even when it never hits.
const DefaultPlanCacheBytes = 4 << 20

// planNodeCost is the accounted size of one plan node: the Plan struct,
// its operand slice headers, and its share of map and FIFO bookkeeping,
// calibrated against live-heap measurements of resident plan trees.
const planNodeCost = 288

// NewPlanCache returns a shared plan cache with the given byte budget:
// 0 selects DefaultPlanCacheBytes, negative disables the bound.
func NewPlanCache(budget int64) *PlanCache {
	if budget == 0 {
		budget = DefaultPlanCacheBytes
	}
	return &PlanCache{c: bounded.New[sharedKey, sharedVal](budget)}
}

// plan returns the shared compiled plan for k, compiling it outside the
// lock on a miss. The first inserted plan wins so all simulators bind the
// same tree.
func (c *PlanCache) plan(k planKey, compile func() *elab.Plan) *elab.Plan {
	sk := sharedKey{pk: k}
	if v, ok := c.c.Get(sk); ok {
		return v.plan
	}
	p := compile()
	return c.c.Add(sk, sharedVal{plan: p}, planCost(p)).plan
}

// starIdents returns the shared synthesized @* sensitivity idents for an
// event control. Sharing the Ident nodes keeps their plan keys stable
// across simulators, so the per-ident plans also share.
func (c *PlanCache) starIdents(n *vlog.EventCtrl, build func() []*vlog.Ident) []*vlog.Ident {
	sk := sharedKey{star: n}
	if v, ok := c.c.Get(sk); ok {
		return v.ids
	}
	ids := build()
	return c.c.Add(sk, sharedVal{ids: ids}, int64(len(ids))*64+64).ids
}

// planCost estimates the accounted bytes of one plan tree.
func planCost(p *elab.Plan) int64 {
	if p == nil {
		return 0
	}
	cost := int64(planNodeCost)
	cost += planCost(p.X) + planCost(p.Y) + planCost(p.Z)
	for _, q := range p.Parts {
		cost += planCost(q)
	}
	return cost
}
