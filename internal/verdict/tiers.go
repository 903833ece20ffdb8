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
// runs once per distinct candidate that parses, on every call for one
// that does not, and not at all for a completion that cannot close its
// module. The sweep engine and the variant bank share it, so a
// candidate the bank verified at LevelLow is a memo hit when a sweep
// samples it at any level whose prompt has the same tokens.
//
// Four shared tiers, all invisible to output, and all bounded.Cache
// instances:
//
//   - testbench tier: one parsed AST per distinct testbench text.
//   - prompt tier: one vlog.Prefix and one token class per (problem,
//     level), so a candidate's parse parses only its completion, and
//     finding a prompt's class hashes two words, never the prompt text.
//   - class tier: one token class per distinct prompt token signature.
//     The paper's three prompt levels differ only in comments, so a
//     problem's three prompts share one class.
//   - verdict memo: one Outcome per (problem, prompt class, truncated
//     completion) that parsed. A compile failure, or a candidate whose
//     bench does not elaborate, is stored with its verdict already
//     decided; otherwise the slot holds the elaborated Design only until
//     its one simulation has run. A candidate that recurs after
//     truncation, or at another level of its class, is answered without
//     parsing or simulating again.
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

// promptKey addresses one prompt: a problem at one level. Problems are
// immutable once built, so the pointer stands for the prompt text.
type promptKey struct {
	p     *problems.Problem
	level problems.Level
}

// prompt is the prompt tier's entry: the parsed prefix and its class.
type prompt struct {
	pre   *vlog.Prefix
	class *promptClass
}

// promptClass is a token class handle; the memo compares it by pointer.
// Prompts with equal token signatures share one through the class tier,
// so a completion's verdict is shared by every level of a problem whose
// prompt differs only in comments. That is sound because a completion
// parses to the same AST behind every prompt of a class apart from node
// positions (vlog.Prefix.Signature), and elab and sim read a position
// only to build error text, which an Outcome does not hold. A prompt
// that cannot be split has no signature and a class of its own. The
// field gives the type a size, so each new class is a distinct pointer.
type promptClass struct{ _ byte }

// prompts is the prompt tier: three entries per testbench.
var prompts = bounded.New[promptKey, prompt](3 * tbCap)

// classes is the class tier. An evicted class only costs sharing: the
// next prompt of its signature gets a new class, never another
// signature's.
var classes = bounded.New[string, *promptClass](3 * tbCap)

// promptFor returns the prompt tier's entry for p at level, parsing the
// prompt and finding its class on a miss.
func promptFor(p *problems.Problem, level problems.Level) prompt {
	k := promptKey{p, level}
	if pr, ok := prompts.Get(k); ok {
		return pr
	}
	return prompts.Add(k, newPrompt(p.Prompt(level)), 1)
}

// newPrompt parses text as a prompt and interns its token class.
func newPrompt(text string) prompt {
	pre := vlog.LexPrefix(text)
	if !pre.Split() {
		return prompt{pre, new(promptClass)}
	}
	sig := pre.Signature()
	c, ok := classes.Get(sig)
	if !ok {
		c = classes.Add(sig, new(promptClass), 1)
	}
	return prompt{pre, c}
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
// testbench, its prompt's token class, and the truncated completion.
// Problems are immutable once built, and a copy of one is another
// pointer, so a copy carrying a modified bench gets its own entries. A
// lookup hashes the completion alone, never the bench or prompt text.
type verdictKey struct {
	p          *problems.Problem
	class      *promptClass
	completion string
}

// cost is the memo's charge for a key's entry: its completion and
// verdictSlotCost.
func (k verdictKey) cost() int64 {
	return int64(len(k.completion)) + verdictSlotCost
}

// verdictSlot is one memo entry: a candidate that parsed. A slot built
// with a design simulates it once, under once, and then drops it; a slot
// built without one holds a verdict decided before simulation (a compile
// failure, or a bench that does not elaborate) and never simulates.
// Either way only the verdict stays resident.
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
// call if it has one. The call that simulates also returns the run's
// Result; every other call returns nil. A run error, an InternalError
// included, is a simulated candidate that does not pass, memoized like
// any verdict.
func (sl *verdictSlot) verdict() (Outcome, *sim.Result) {
	var res *sim.Result
	sl.once.Do(func() {
		if sl.d == nil {
			return // decided before simulation
		}
		o, r := simulate(sl.d, sim.Options{})
		sl.d, sl.o, res = nil, o, &r
	})
	return sl.o, res
}

// evaluateShared is the pipeline behind Evaluate: same verdict as
// evaluateSim with default options, with the compile and simulation work
// paid once per distinct candidate. The Result is the simulation this
// call ran, nil when it ran none (a memo hit, or a candidate that never
// reaches simulation).
//
// The common LLM failure never closes its module: behind a split prompt
// a completion without the text endmodule cannot parse
// (vlog.Prefix.Split), so one substring search rejects it before
// truncation, the memo and the parser, and truncation reuses that
// search. Every candidate that parses is stored, at the same charge:
// the sweep draws the same few compile failures hundreds of times per
// problem, and a stored one is answered without parsing again. A parse
// failure is returned directly and parses again on a repeat: its
// distinct texts are many and rarely recur, so storing them would cost
// more memo than they save. A slot is built outside any lock; when two
// workers miss on the same candidate, the first Add wins and both wait
// on its one simulation, if it has one.
func evaluateShared(p *problems.Problem, level problems.Level, completion string) (Outcome, *sim.Result) {
	pr := promptFor(p, level)
	j := strings.Index(completion, "endmodule")
	if j < 0 && pr.pre.Split() {
		return Outcome{}, nil
	}
	k := verdictKey{p: p, class: pr.class, completion: truncateAt(completion, j)}
	m := memo.Load()
	if sl, ok := m.Get(k); ok {
		return sl.verdict()
	}
	f, ok := vlog.ParsePrefixed(pr.pre, k.completion)
	if !ok {
		return Outcome{}, nil
	}
	o, d := elaborate(p, f)
	// Truncate may return a slice of the caller's completion; a copy
	// keeps the memo from pinning the caller's whole text
	k.completion = strings.Clone(k.completion)
	return m.Add(k, &verdictSlot{d: d, o: o}, k.cost()).verdict()
}

// SharedCacheStats snapshots the shared tiers. The verdict memo's
// counters keep their Design names: Designs is its resident entries,
// DesignHits and DesignMisses count its lookups. Skeletons counts
// resident testbench-tier entries, Prompts resident prompt-tier entries
// and PromptClasses resident class-tier entries. A prompt that cannot be
// split holds a class of its own that the class tier does not count.
type SharedCacheStats struct {
	Designs       int
	DesignHits    uint64
	DesignMisses  uint64
	DesignBytes   int64
	DesignEvicted uint64
	Skeletons     int
	Prompts       int
	PromptClasses int
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
		Prompts:       prompts.Stats().Entries,
		PromptClasses: classes.Stats().Entries,
		Plans:         planStats{}, // no plans are shared
	}
}
