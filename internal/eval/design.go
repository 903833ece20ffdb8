package eval

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// This file is the "elaborate once, simulate many" layer: the per-sample
// compile pipeline (parse, compile-check, elaborate, simulator
// construction) is cached so a sweep pays it once per distinct candidate
// and the testbench cone is compiled once per (problem, level).
//
// Three shared tiers, all content-addressed and all invisible to output:
//
//   - skeleton tier: one elab.Skeleton per distinct testbench text, built
//     once and spliced per candidate (skeleton.go in the elab package).
//   - design tier: one compiled slot per (testbench, candidate source)
//     pair, holding the spliced Design and a pool of reusable Simulators
//     whose bound plans and runtime objects persist across runs.
//   - plan tier: a sim.PlanCache sharing immutable compiled expression
//     plans across all simulators (including first-time candidates, whose
//     testbench cone was already compiled by earlier candidates).
//
// Every cached artifact is a pure function of its key, so eviction and
// recomputation are byte-identical; the differential suite pins shared vs
// fresh vs interpreted output. EvaluateUnshared (and Runner.UnsharedPlans)
// keep the fresh-everything pipeline as the differential baseline, the
// same role sim.Options.Interpret plays one layer down.

// DefaultDesignCacheBytes bounds the design tier when no budget is
// configured. Entries are accounted stage-aware (see designSlotOverhead
// and designGraphOverhead), so the accounted budget tracks real
// retention. The default is deliberately modest: a resident compiled
// design only pays off for candidates that recur, and an oversized cache
// taxes the whole process through GC mark cost — retained pointer-dense
// graphs (AST nodes, plan trees, simulator state) are exactly what the
// collector scans every cycle.
const DefaultDesignCacheBytes = 4 << 20

// designSlotOverhead is a slot's insert-time cost beyond its source
// text: the slot struct, map bookkeeping, and key strings. Candidates
// that never reach simulation (parse or compile-check failures) retain
// little beyond this.
const designSlotOverhead = 512

// designGraphOverhead is charged on top once a slot's candidate reaches
// stageSim: the elaborated design graph, compiled plans, and pooled
// simulator state. Calibrated from live-heap deltas (~17 KB per resident
// reference-design slot including its plan-cache share), rounded up for
// larger candidates and pool churn.
const designGraphOverhead = 24 << 10

// stage records how far a candidate's compile pipeline got; the verdict
// for every non-simulating stage is fully determined by the stage.
const (
	stageNoParse   int8 = iota // candidate failed to parse
	stageNoCompile             // candidate failed standalone CompileCheck
	stageNoSim                 // compiles, but testbench or elaboration failed
	stageSim                   // design ready to simulate
)

// skelEntry is the skeleton tier's per-testbench state, built once under
// the entry's once. A nil skel (skeleton construction failed) falls back
// to full elaboration per candidate.
type skelEntry struct {
	once  sync.Once
	tb    *vlog.SourceFile
	tbErr error
	skel  *elab.Skeleton
}

// designKey addresses one compiled candidate: the testbench text scopes
// the candidate source, mirroring the legacy Compose(candidate, bench)
// pipeline input.
type designKey struct {
	tb  string
	src string
}

// designSlot is one compiled candidate design plus its simulator pool.
type designSlot struct {
	once  sync.Once
	stage int8
	cost  int64 // accounted bytes; written and read under dc.mu
	d     *elab.Design
	pool  sync.Pool // *sim.Simulator, reset on reuse
}

// dc is the process-wide design cache. Like the testbench AST cache it
// outlives every Runner; unlike it, entries are byte-accounted (candidate
// sources dominate) with FIFO eviction mirroring the outcome cache's
// CacheBytes discipline.
var dc = struct {
	lookups atomic.Uint64
	misses  atomic.Uint64

	mu        sync.RWMutex
	skels     map[string]*skelEntry
	skelOrder []string
	designs   map[designKey]*designSlot
	order     []designKey
	bytes     int64
	budget    int64 // 0 = DefaultDesignCacheBytes, <0 = unbounded
	evicted   uint64
}{skels: map[string]*skelEntry{}, designs: map[designKey]*designSlot{}}

// plans is the process-wide shared plan cache, created lazily so a
// SetPlanCacheBytes call before first use sizes it.
var plans = struct {
	mu     sync.Mutex
	c      *sim.PlanCache
	budget int64
}{}

func sharedPlanCache() *sim.PlanCache {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	if plans.c == nil {
		plans.c = sim.NewPlanCache(plans.budget)
	}
	return plans.c
}

// SetPlanCacheBytes configures the shared compiled-artifact budgets: the
// plan cache and the design cache are each bounded by n accounted bytes.
// 0 restores the defaults (sim.DefaultPlanCacheBytes and
// DefaultDesignCacheBytes), negative disables the bounds. The plan cache
// is rebuilt empty so the new budget applies from scratch; simulators
// already bound to the old cache finish against it harmlessly.
func SetPlanCacheBytes(n int64) {
	plans.mu.Lock()
	plans.budget = n
	plans.c = nil
	plans.mu.Unlock()
	dc.mu.Lock()
	dc.budget = n
	evictDesignsLocked()
	dc.mu.Unlock()
}

func designBudget() int64 {
	if dc.budget == 0 {
		return DefaultDesignCacheBytes
	}
	return dc.budget
}

// evictDesignsLocked drops design slots oldest-first until the budget
// holds, never the newest entry. Callers hold dc.mu.
func evictDesignsLocked() {
	budget := designBudget()
	if budget < 0 {
		return
	}
	for dc.bytes > budget && len(dc.order) > 1 {
		old := dc.order[0]
		dc.order = dc.order[1:]
		dc.bytes -= dc.designs[old].cost
		delete(dc.designs, old)
		dc.evicted++
	}
}

// skelFor returns the skeleton entry for the problem's testbench,
// building it at most once. The skeleton map is FIFO-capped like the
// testbench AST cache: steady-state problem sets stay resident, unbounded
// bench churn cannot leak.
func skelFor(p *problems.Problem) *skelEntry {
	dc.mu.RLock()
	e := dc.skels[p.Testbench]
	dc.mu.RUnlock()
	if e == nil {
		dc.mu.Lock()
		if e = dc.skels[p.Testbench]; e == nil {
			e = &skelEntry{}
			dc.skels[p.Testbench] = e
			dc.skelOrder = append(dc.skelOrder, p.Testbench)
			if len(dc.skelOrder) > tbCacheCap {
				delete(dc.skels, dc.skelOrder[0])
				dc.skelOrder = dc.skelOrder[1:]
			}
		}
		dc.mu.Unlock()
	}
	e.once.Do(func() {
		e.tb, e.tbErr = testbenchAST(p)
		if e.tbErr != nil {
			return
		}
		sk, err := elab.NewSkeleton(e.tb, "tb", elab.HoleModules(e.tb), elab.Options{})
		if err == nil {
			e.skel = sk
		}
	})
	return e
}

// slotFor returns the design slot for (testbench, candidate source),
// inserting and accounting a fresh slot on miss.
func slotFor(p *problems.Problem, src string) *designSlot {
	dc.lookups.Add(1)
	k := designKey{tb: p.Testbench, src: src}
	dc.mu.RLock()
	sl := dc.designs[k]
	dc.mu.RUnlock()
	if sl != nil {
		return sl
	}
	dc.misses.Add(1)
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if sl = dc.designs[k]; sl != nil {
		return sl
	}
	sl = &designSlot{cost: int64(len(k.src)) + designSlotOverhead}
	dc.designs[k] = sl
	dc.order = append(dc.order, k)
	dc.bytes += sl.cost
	evictDesignsLocked()
	return sl
}

// build runs the compile pipeline once for this slot. Splice failures of
// any kind fall back to full elaboration, so the stage (and on success
// the design's observable behaviour) is identical to the legacy
// per-sample pipeline by construction.
func (sl *designSlot) build(se *skelEntry, src string) {
	f, err := vlog.Parse(src)
	if err != nil {
		sl.stage = stageNoParse
		return
	}
	if elab.CompileCheck(f) != nil {
		sl.stage = stageNoCompile
		return
	}
	if se.tbErr != nil {
		sl.stage = stageNoSim
		return
	}
	var d *elab.Design
	if se.skel != nil {
		if sd, serr := se.skel.Splice(f); serr == nil {
			d = sd
		}
	}
	if d == nil {
		fd, ferr := elab.Elaborate(vlog.Compose(f, se.tb), "tb", elab.Options{})
		if ferr != nil {
			sl.stage = stageNoSim
			return
		}
		d = fd
	}
	sl.d = d
	sl.stage = stageSim
}

// getSim returns a pooled simulator reset for a fresh run, or a new one.
func (sl *designSlot) getSim(opts sim.Options) *sim.Simulator {
	if v := sl.pool.Get(); v != nil {
		s := v.(*sim.Simulator)
		s.Reset(opts)
		return s
	}
	return sim.New(sl.d, opts)
}

// evaluateShared is the shared-artifact pipeline behind Evaluate: same
// verdict and simulation bytes as evaluateSim with default options, with
// the compile work amortized across samples.
func evaluateShared(p *problems.Problem, level problems.Level, completion string) (Outcome, sim.Result) {
	completion = Truncate(completion)
	src := p.CompleteWith(level, completion)
	se := skelFor(p)
	sl := slotFor(p, src)
	sl.once.Do(func() {
		sl.build(se, src)
		if sl.stage != stageSim {
			return
		}
		// The candidate reached simulation, so the slot now retains the
		// elaborated graph: charge the stage-aware surcharge. Skip slots
		// evicted mid-build — their insert cost is already refunded.
		dc.mu.Lock()
		if dc.designs[designKey{tb: p.Testbench, src: src}] == sl {
			sl.cost += designGraphOverhead
			dc.bytes += designGraphOverhead
			evictDesignsLocked()
		}
		dc.mu.Unlock()
	})
	switch sl.stage {
	case stageNoParse, stageNoCompile:
		return Outcome{}, sim.Result{}
	case stageNoSim:
		return Outcome{Compiles: true}, sim.Result{}
	}
	s := sl.getSim(sim.Options{Plans: sharedPlanCache()})
	res, err := s.Run()
	// a simulator that panicked internally may hold torn state; drop it
	var ie *sim.InternalError
	if !errors.As(err, &ie) {
		sl.pool.Put(s)
	}
	if err != nil {
		return Outcome{Compiles: true, Simulated: true}, res
	}
	return Outcome{Compiles: true, Simulated: true, Passes: problems.PassVerdict(res.Output)}, res
}

// SharedCacheStats snapshots the shared compiled-artifact tiers: the
// design cache (per-candidate compiled designs and simulator pools) and
// the plan cache (immutable compiled expression plans).
type SharedCacheStats struct {
	Designs       int
	DesignHits    uint64
	DesignMisses  uint64
	DesignBytes   int64
	DesignEvicted uint64
	Skeletons     int
	Plans         sim.PlanCacheStats
}

// SharedStats reports hit/miss/eviction/occupancy counters for the shared
// caches, the -cache-stats diagnostic surface.
func SharedStats() SharedCacheStats {
	st := SharedCacheStats{
		Plans: sharedPlanCache().Stats(),
	}
	lookups := dc.lookups.Load()
	st.DesignMisses = dc.misses.Load()
	if lookups > st.DesignMisses {
		st.DesignHits = lookups - st.DesignMisses
	}
	dc.mu.RLock()
	st.Designs = len(dc.designs)
	st.DesignBytes = dc.bytes
	st.DesignEvicted = dc.evicted
	st.Skeletons = len(dc.skels)
	dc.mu.RUnlock()
	return st
}
