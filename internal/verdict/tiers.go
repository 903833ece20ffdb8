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

// This file is the "simulate once" layer behind Evaluate: the
// per-candidate pipeline (parse, compile-check, elaborate, simulate)
// runs once per distinct candidate that reaches simulation. The sweep
// engine and the variant bank share it, so a candidate the bank verified
// is a memo hit when a sweep samples it at the same level.
//
// Three shared tiers, all invisible to output, and all bounded.Cache
// instances:
//
//   - testbench tier: one parsed AST per distinct testbench text.
//   - prefix tier: one vlog.Prefix per prompt text, so a candidate's
//     parse parses only its completion.
//   - verdict memo: one Outcome per (problem, level, truncated
//     completion) that reached simulation. The slot holds the elaborated
//     Design only until its one simulation has run, so a candidate that
//     recurs after truncation is answered without simulating again.
//
// Only verdicts are shared across candidates: each candidate is
// elaborated in full and its simulator compiles its own plans, exactly
// as in EvaluateUnshared, the fresh-everything differential baseline
// (the role sim.Options.Interpret plays one layer down). Every cached
// artifact is a pure function of its key, so eviction and recomputation
// are byte-identical; the differential suite pins shared vs fresh vs
// interpreted output.

// DefaultMemoBytes bounds the verdict memo when no budget is
// configured. Entries are accounted at their completion plus
// verdictSlotCost, so the accounted budget bounds real retention.
const DefaultMemoBytes = 4 << 20

// verdictSlotCost is a memo entry's cost beyond its completion: the
// slot struct, its map and FIFO bookkeeping and the key. The problem and
// its prompt are shared with the Problem, so they are not charged.
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

// testbench is the testbench tier's entry: the parsed AST under a once.
// Elaboration only reads the AST, so sharing it across workers is safe.
type testbench struct {
	text string

	parseOnce sync.Once
	file      *vlog.SourceFile
	err       error
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

// verdictKey addresses one candidate: its problem, which fixes the
// testbench and each level's prompt, the level, and the truncated
// completion. Problems are immutable once built, and a copy of one is
// another pointer, so a copy carrying a modified bench gets its own
// entries. A lookup hashes the completion alone, never the bench text.
type verdictKey struct {
	p          *problems.Problem
	level      problems.Level
	completion string
}

// cost is the memo's charge for a key's entry: its completion and
// verdictSlotCost.
func (k verdictKey) cost() int64 {
	return int64(len(k.completion)) + verdictSlotCost
}

// verdictSlot is one memo entry: a candidate that reached simulation.
// The design is simulated once, under once, and then dropped; only the
// verdict stays resident.
type verdictSlot struct {
	once sync.Once
	d    *elab.Design // nil once simulated
	o    Outcome
}

// memo is the process-wide verdict memo. It outlives every sweep and
// every bank; SetPlanCacheBytes replaces it.
var memo atomic.Pointer[bounded.Cache[verdictKey, *verdictSlot]]

func init() { SetPlanCacheBytes(0) }

// SetPlanCacheBytes bounds the verdict memo by n accounted bytes: 0
// restores DefaultMemoBytes, negative disables the bound. The memo is
// rebuilt empty so the new budget applies from scratch; a simulation
// already running against the old one finishes against it harmlessly.
// The verdict path shares no plans; the name stays for bench/child.go,
// which empties the memo through it, until the next change to the
// benchmark drops it.
func SetPlanCacheBytes(n int64) {
	if n == 0 {
		n = DefaultMemoBytes
	}
	memo.Store(bounded.New[verdictKey, *verdictSlot](n))
}

// verdict returns the slot's Outcome, simulating its design on the first
// call. The call that simulates also returns the run's Result; every
// other call returns nil. A run error, an InternalError included, is a
// simulated candidate that does not pass, memoized like any verdict.
func (sl *verdictSlot) verdict() (Outcome, *sim.Result) {
	var res *sim.Result
	sl.once.Do(func() {
		o, r := simulate(sl.d, sim.Options{})
		sl.d, sl.o, res = nil, o, &r
	})
	return sl.o, res
}

// evaluateShared is the pipeline behind Evaluate: same verdict as
// evaluateSim with default options, with the compile and simulation work
// paid once per distinct candidate. The Result is the simulation this
// call ran, nil when it ran none (a memo hit, or a candidate that never
// reaches simulation). Only candidates that reach simulation are stored:
// a failure's verdict is returned directly, so the common LLM failure (a
// parse error) never evicts a verdict, and a repeated failure parses
// again. A slot is built outside any lock; when two workers miss on the
// same candidate, the first Add wins and both wait on its one
// simulation.
func evaluateShared(p *problems.Problem, level problems.Level, completion string) (Outcome, *sim.Result) {
	k := verdictKey{p: p, level: level, completion: Truncate(completion)}
	m := memo.Load()
	if sl, ok := m.Get(k); ok {
		return sl.verdict()
	}
	f, ok := vlog.ParsePrefixed(prefixFor(p.Prompt(level)), k.completion)
	if !ok {
		return Outcome{}, nil
	}
	o, d := elaborate(p, f)
	if d == nil {
		return o, nil
	}
	// Truncate may return a slice of the caller's completion; a copy
	// keeps the memo from pinning the caller's whole text
	k.completion = strings.Clone(k.completion)
	return m.Add(k, &verdictSlot{d: d}, k.cost()).verdict()
}

// SharedCacheStats snapshots the shared tiers. The verdict memo's
// counters keep their Design names: Designs is its resident entries,
// DesignHits and DesignMisses count its lookups. Skeletons counts
// resident testbench-tier entries.
type SharedCacheStats struct {
	Designs       int
	DesignHits    uint64
	DesignMisses  uint64
	DesignBytes   int64
	DesignEvicted uint64
	Skeletons     int
	// Plans reads zero: the verdict path shares no plans. It stays for
	// bench/child.go, which reads it, until the next change to the
	// benchmark drops it.
	Plans planStats
}

// planStats is the type of SharedCacheStats.Plans: the two counters
// bench/child.go reads.
type planStats struct{ Hits, Misses uint64 }

// SharedStats reports hit/miss/eviction/occupancy counters for the shared
// tiers, the -cache-stats diagnostic surface.
func SharedStats() SharedCacheStats {
	ds := memo.Load().Stats()
	return SharedCacheStats{
		Designs:       ds.Entries,
		DesignHits:    ds.Hits,
		DesignMisses:  ds.Misses,
		DesignBytes:   ds.Bytes,
		DesignEvicted: ds.Evicted,
		Skeletons:     testbenches.Stats().Entries,
		Plans:         planStats{}, // no plans are shared
	}
}
