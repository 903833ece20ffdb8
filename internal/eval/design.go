package eval

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/bounded"
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
// Three shared tiers, all content-addressed, all invisible to output, and
// all bounded.Cache instances:
//
//   - testbench tier: one entry per distinct testbench text, holding the
//     parsed AST and, built on first shared use, the elab.Skeleton each
//     candidate splices into (skeleton.go in the elab package).
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

// designSlotOverhead is a slot's cost beyond its source text: the slot
// struct, map bookkeeping, and key strings. Candidates that never reach
// simulation (parse or compile-check failures) retain little beyond this.
const designSlotOverhead = 512

// designGraphOverhead is charged on top for a candidate that reaches
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

// tbCap bounds the testbench tier by entry count. Keying by the text (not
// the problem number) makes the tier immune to Problem copies that carry
// a modified bench under a reused number. The cap keeps the steady state
// (the benchmark's fixed problem set) fully cached while capping
// worst-case retention in processes that churn through many distinct
// benches; an evicted-and-reused bench only costs one re-parse.
const tbCap = 128

var testbenches = bounded.New[string, *testbench](tbCap)

// testbench is the testbench tier's entry: the parsed AST under one once
// and the skeleton under a second, so EvaluateUnshared pays only the
// parse. Elaboration and simulation only read the AST, so sharing it
// across workers is safe.
type testbench struct {
	text string

	parseOnce sync.Once
	file      *vlog.SourceFile
	err       error

	skelOnce sync.Once
	skel     *elab.Skeleton // nil when construction failed: elaborate instead
}

// testbenchFor returns the tier's entry for a testbench text, adding an
// unbuilt one on a miss.
func testbenchFor(text string) *testbench {
	if tb, ok := testbenches.Get(text); ok {
		return tb
	}
	return testbenches.Add(text, &testbench{text: text}, 1)
}

// parsed returns the testbench AST, parsing it at most once per entry.
func (tb *testbench) parsed() (*vlog.SourceFile, error) {
	tb.parseOnce.Do(func() { tb.file, tb.err = vlog.Parse(tb.text) })
	return tb.file, tb.err
}

// skeleton returns the testbench's skeleton, building it at most once per
// entry, or nil when the bench does not parse or does not skeletonize.
func (tb *testbench) skeleton() *elab.Skeleton {
	tb.skelOnce.Do(func() {
		f, err := tb.parsed()
		if err != nil {
			return
		}
		if sk, err := elab.NewSkeleton(f, "tb", elab.HoleModules(f), elab.Options{}); err == nil {
			tb.skel = sk
		}
	})
	return tb.skel
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
	stage int8
	d     *elab.Design
	pool  sync.Pool // *sim.Simulator, reset on reuse
}

// cost is the slot's stage-aware accounted size.
func (sl *designSlot) cost(src string) int64 {
	c := int64(len(src)) + designSlotOverhead
	if sl.stage == stageSim {
		c += designGraphOverhead
	}
	return c
}

// sharedTiers holds the process-wide design and plan tiers. Both outlive
// every Runner; SetPlanCacheBytes replaces them together.
type sharedTiers struct {
	designs *bounded.Cache[designKey, *designSlot]
	plans   *sim.PlanCache
}

var tiers atomic.Pointer[sharedTiers]

func init() { SetPlanCacheBytes(0) }

// SetPlanCacheBytes configures the shared compiled-artifact budgets: the
// plan cache and the design cache are each bounded by n accounted bytes.
// 0 restores the defaults (sim.DefaultPlanCacheBytes and
// DefaultDesignCacheBytes), negative disables the bounds. Both tiers are
// rebuilt empty so the new budget applies from scratch; simulators and
// slots already taken from the old tiers finish against them harmlessly.
func SetPlanCacheBytes(n int64) {
	designBudget := n
	if designBudget == 0 {
		designBudget = DefaultDesignCacheBytes
	}
	tiers.Store(&sharedTiers{
		designs: bounded.New[designKey, *designSlot](designBudget),
		plans:   sim.NewPlanCache(n),
	})
}

// buildSlot runs the compile pipeline for one candidate source. Splice
// failures of any kind fall back to full elaboration, so the stage (and
// on success the design's observable behaviour) is identical to the
// legacy per-sample pipeline by construction.
func buildSlot(p *problems.Problem, src string) *designSlot {
	sl := &designSlot{}
	f, err := vlog.Parse(src)
	if err != nil {
		sl.stage = stageNoParse
		return sl
	}
	if elab.CompileCheck(f) != nil {
		sl.stage = stageNoCompile
		return sl
	}
	tb := testbenchFor(p.Testbench)
	tbf, err := tb.parsed()
	if err != nil {
		sl.stage = stageNoSim
		return sl
	}
	if sk := tb.skeleton(); sk != nil {
		if sd, serr := sk.Splice(f); serr == nil {
			sl.d = sd
		}
	}
	if sl.d == nil {
		fd, ferr := elab.Elaborate(vlog.Compose(f, tbf), "tb", elab.Options{})
		if ferr != nil {
			sl.stage = stageNoSim
			return sl
		}
		sl.d = fd
	}
	sl.stage = stageSim
	return sl
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
// the compile work amortized across samples. A slot is built outside any
// lock and added at its final cost; when two workers miss on the same
// candidate, the first Add wins and both use its slot.
func evaluateShared(p *problems.Problem, level problems.Level, completion string) (Outcome, sim.Result) {
	completion = Truncate(completion)
	src := p.CompleteWith(level, completion)
	t := tiers.Load()
	k := designKey{tb: p.Testbench, src: src}
	sl, ok := t.designs.Get(k)
	if !ok {
		sl = buildSlot(p, src)
		sl = t.designs.Add(k, sl, sl.cost(src))
	}
	switch sl.stage {
	case stageNoParse, stageNoCompile:
		return Outcome{}, sim.Result{}
	case stageNoSim:
		return Outcome{Compiles: true}, sim.Result{}
	}
	s := sl.getSim(sim.Options{Plans: t.plans})
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
// caches, the -cache-stats diagnostic surface. Skeletons counts resident
// testbench-tier entries.
func SharedStats() SharedCacheStats {
	t := tiers.Load()
	ds := t.designs.Stats()
	return SharedCacheStats{
		Designs:       ds.Entries,
		DesignHits:    ds.Hits,
		DesignMisses:  ds.Misses,
		DesignBytes:   ds.Bytes,
		DesignEvicted: ds.Evicted,
		Skeletons:     testbenches.Stats().Entries,
		Plans:         t.plans.Stats(),
	}
}
