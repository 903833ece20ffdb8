package verdict

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bounded"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// This file is the "elaborate once, simulate once" layer behind
// Evaluate: the per-candidate pipeline (parse, compile-check, splice or
// elaborate, simulate) runs once per distinct candidate, and the
// testbench cone is compiled once per (problem, level). The sweep engine
// and the variant bank share it, so a candidate the bank verified is a
// memo hit when a sweep samples it at the same level.
//
// Four shared tiers, all content-addressed, all invisible to output, and
// all bounded.Cache instances:
//
//   - testbench tier: one entry per distinct testbench text, holding the
//     parsed AST and, built on first shared use, the elab.Skeleton each
//     candidate splices into (skeleton.go in the elab package).
//   - prefix tier: one vlog.Prefix per prompt text, so a candidate's
//     parse parses only its completion.
//   - verdict memo: one Outcome per (testbench, candidate source) pair
//     that reached simulation. The slot holds the spliced Design only
//     until its one simulation has run, so a candidate that recurs after
//     truncation is answered without simulating again.
//   - plan tier: a sim.PlanCache sharing immutable compiled expression
//     plans across all simulators (first-time candidates reuse the
//     testbench cone earlier candidates compiled).
//
// Every cached artifact is a pure function of its key, so eviction and
// recomputation are byte-identical; the differential suite pins shared vs
// fresh vs interpreted output. EvaluateUnshared keeps the
// fresh-everything pipeline as the differential baseline, the same role
// sim.Options.Interpret plays one layer down.

// DefaultMemoBytes bounds the verdict memo when no budget is
// configured. Entries are accounted at their source text plus
// verdictSlotCost, so the accounted budget bounds real retention.
const DefaultMemoBytes = 4 << 20

// verdictSlotCost is a memo entry's cost beyond its source text: the
// slot struct, its map and FIFO bookkeeping and the key's string
// headers. The testbench text is shared with the Problem, so it is not
// charged. The prompt is shared too, but charged, so an entry costs its
// whole source text.
const verdictSlotCost = 256

// tbCap bounds the testbench tier by entry count. Keying by the text (not
// the problem number) makes the tier immune to Problem copies that carry
// a modified bench under a reused number. The cap keeps the steady state
// (the benchmark's fixed problem set) fully cached while capping
// worst-case retention in processes that churn through many distinct
// benches; an evicted-and-reused bench only costs one re-parse.
const tbCap = 128

var testbenches = bounded.New[string, *testbench](tbCap)

// prefixes is the prefix tier. Each (problem, level) has its own
// prompt, hence three entries per testbench.
var prefixes = bounded.New[string, *vlog.Prefix](3 * tbCap)

// prefixFor returns the parsed prefix of a prompt, parsing it on a miss.
func prefixFor(prompt string) *vlog.Prefix {
	if pre, ok := prefixes.Get(prompt); ok {
		return pre
	}
	return prefixes.Add(prompt, vlog.LexPrefix(prompt), 1)
}

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

// verdictKey addresses one candidate: the testbench text scopes the
// candidate source, prompt followed by completion, mirroring the legacy
// Compose(candidate, bench) pipeline input. The source stays in its two
// parts, so a lookup builds no string.
type verdictKey struct {
	tb, prompt, completion string
}

// cost is the memo's charge for a key's entry: its source text, as if
// prompt and completion were one string, and verdictSlotCost.
func (k verdictKey) cost() int64 {
	return int64(len(k.prompt)+len(k.completion)) + verdictSlotCost
}

// verdictSlot is one memo entry: a candidate that reached simulation.
// The design is simulated once, under once, and then dropped; only the
// verdict stays resident.
type verdictSlot struct {
	once sync.Once
	d    *elab.Design // nil once simulated
	o    Outcome
}

// sharedTiers holds the process-wide verdict memo and plan tier. Both
// outlive every sweep and every bank; SetPlanCacheBytes replaces them
// together.
type sharedTiers struct {
	memo  *bounded.Cache[verdictKey, *verdictSlot]
	plans *sim.PlanCache
}

var tiers atomic.Pointer[sharedTiers]

func init() { SetPlanCacheBytes(0) }

// SetPlanCacheBytes configures the shared budgets: the plan cache and the
// verdict memo are each bounded by n accounted bytes. 0 restores the
// defaults (sim.DefaultPlanCacheBytes and DefaultMemoBytes),
// negative disables the bounds. Both tiers are rebuilt empty so the new
// budget applies from scratch; a simulation already running against the
// old tiers finishes against them harmlessly.
func SetPlanCacheBytes(n int64) {
	memoBudget := n
	if memoBudget == 0 {
		memoBudget = DefaultMemoBytes
	}
	tiers.Store(&sharedTiers{
		memo:  bounded.New[verdictKey, *verdictSlot](memoBudget),
		plans: sim.NewPlanCache(n),
	})
}

// buildSlot runs the compile pipeline for prompt+completion. A nil slot
// means the candidate does not reach simulation, and the Outcome is then
// its verdict. Splice failures of any kind fall back to full
// elaboration, so the verdict (and on success the design's observable
// behaviour) is identical to the legacy per-sample pipeline by
// construction.
func buildSlot(p *problems.Problem, prompt, completion string) (Outcome, *verdictSlot) {
	f, err := vlog.ParsePrefixed(prefixFor(prompt), completion)
	if err != nil || elab.CompileCheck(f) != nil {
		return Outcome{}, nil
	}
	compiles := Outcome{Compiles: true}
	tb := testbenchFor(p.Testbench)
	tbf, err := tb.parsed()
	if err != nil {
		return compiles, nil
	}
	if sk := tb.skeleton(); sk != nil {
		if d, err := sk.Splice(f); err == nil {
			return compiles, &verdictSlot{d: d}
		}
	}
	d, err := elab.Elaborate(vlog.Compose(f, tbf), "tb", elab.Options{})
	if err != nil {
		return compiles, nil
	}
	return compiles, &verdictSlot{d: d}
}

// verdict returns the slot's Outcome, simulating its design on the first
// call. The call that simulates also returns the run's Result; every
// other call returns nil. A run error, an InternalError included, is a
// simulated candidate that does not pass, memoized like any verdict.
func (sl *verdictSlot) verdict(plans *sim.PlanCache) (Outcome, *sim.Result) {
	var res *sim.Result
	sl.once.Do(func() {
		r, err := sim.New(sl.d, sim.Options{Plans: plans}).Run()
		sl.d = nil
		sl.o = Outcome{Compiles: true, Simulated: true, Passes: err == nil && problems.PassVerdict(r.Output)}
		res = &r
	})
	return sl.o, res
}

// evaluateShared is the shared-artifact pipeline behind Evaluate: same
// verdict as evaluateSim with default options, with the compile and
// simulation work paid once per distinct candidate. The Result is the
// simulation this call ran, nil when it ran none (a memo hit, or a
// candidate that never reaches simulation). Only candidates that reach
// simulation are stored: a failure's verdict is returned directly, so
// the common LLM failure (a parse error) never evicts a verdict, and a
// repeated failure parses again. A slot is built outside any lock; when
// two workers miss on the same candidate, the first Add wins and both
// wait on its one simulation.
func evaluateShared(p *problems.Problem, level problems.Level, completion string) (Outcome, *sim.Result) {
	k := verdictKey{tb: p.Testbench, prompt: p.Prompt(level), completion: Truncate(completion)}
	t := tiers.Load()
	sl, ok := t.memo.Get(k)
	if !ok {
		var o Outcome
		if o, sl = buildSlot(p, k.prompt, k.completion); sl == nil {
			return o, nil
		}
		// Truncate may return a slice of the caller's completion; a copy
		// keeps the memo from pinning the caller's whole text
		k.completion = strings.Clone(k.completion)
		sl = t.memo.Add(k, sl, k.cost())
	}
	return sl.verdict(t.plans)
}

// SharedCacheStats snapshots the shared tiers: the verdict memo, whose
// counters keep their Design names (Designs is its resident entries,
// DesignHits and DesignMisses count its lookups), and the plan cache
// (immutable compiled expression plans).
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
	ds := t.memo.Stats()
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
