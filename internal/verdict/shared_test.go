package verdict

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
)

// TestSharedEvictionRecomputesIdentically squeezes the verdict memo to a
// near-zero budget so verdicts evict constantly, then verifies
// re-evaluation under pressure reproduces the unshared pipeline exactly
// and that evictions actually happened.
func TestSharedEvictionRecomputesIdentically(t *testing.T) {
	defer SetPlanCacheBytes(0)
	SetPlanCacheBytes(1)
	before := SharedStats()
	for _, pn := range []int{1, 4, 6, 9} {
		p := problems.ByNumber(pn)
		for _, l := range problems.Levels {
			for i := 0; i < 2; i++ {
				os, rs := evaluateShared(p, l, p.RefBody)
				of, rf := evaluateSim(p, l, p.RefBody, sim.Options{})
				if os != of || (rs != nil && rs.Output != rf.Output) {
					t.Errorf("problem %d/%s: starved shared pipeline diverged: %+v vs %+v/%q",
						pn, l, os, of, rf.Output)
				}
			}
		}
	}
	after := SharedStats()
	if after.DesignEvicted <= before.DesignEvicted {
		t.Errorf("verdict memo evicted nothing under a 1-byte budget: %+v", after)
	}
}

// TestMemoAdmitsEveryParsedCandidate pins the verdict memo's admission
// rule and its accepted cost. Of a parse failure, a compile failure, a
// candidate whose bench does not elaborate and the reference, every one
// but the parse failure is stored, once, charged its truncated
// completion and verdictSlotCost. A repeat of a stored candidate parses
// nothing and stores nothing more; a repeated parse failure parses
// again, since no tier holds parse failures. One that cannot close its
// module is rejected before the parser, every time.
func TestMemoAdmitsEveryParsedCandidate(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	p := problems.ByNumber(6)
	badBench := *p
	badBench.Testbench = "module tb;\n  reg clk;\n  counter dut(.clk(clk), .no_such_port(clk));\nendmodule\n"
	cases := []struct {
		name       string
		p          *problems.Problem
		completion string
		want       Outcome
		stored     int
		parses     uint64 // on a repeat
	}{
		{"parse failure", p, "  design-tier garbage tokens\nendmodule\n", Outcome{}, 0, 1},
		{"unclosable", p, "  design-tier unclosable tokens\n", Outcome{}, 0, 0},
		{"compile failure", p, "  assign design_tier_undeclared = 1;\nendmodule\n", Outcome{}, 1, 0},
		{"bench does not elaborate", &badBench, p.RefBody, Outcome{Compiles: true}, 1, 0},
		{"reference", p, p.RefBody, Outcome{Compiles: true, Simulated: true, Passes: true}, 1, 0},
	}
	for _, c := range cases {
		before := SharedStats()
		if got := Evaluate(c.p, problems.LevelLow, c.completion); got != c.want {
			t.Errorf("%s: outcome %+v, want %+v", c.name, got, c.want)
		}
		after := SharedStats()
		if n := after.Designs - before.Designs; n != c.stored {
			t.Errorf("%s: verdict memo grew by %d, want %d", c.name, n, c.stored)
		}
		want := int64(c.stored) * (int64(len(Truncate(c.completion))) + verdictSlotCost)
		if n := after.DesignBytes - before.DesignBytes; n != want {
			t.Errorf("%s: verdict memo charged %d bytes, want %d", c.name, n, want)
		}

		parses, before := vlog.ParseCalls(), after
		got, res := evaluateShared(c.p, problems.LevelLow, c.completion)
		if got != c.want || res != nil {
			t.Errorf("repeated %s: outcome %+v (simulated %t), want %+v unsimulated", c.name, got, res != nil, c.want)
		}
		if n := vlog.ParseCalls() - parses; n != c.parses {
			t.Errorf("repeated %s parsed %d texts, want %d", c.name, n, c.parses)
		}
		if after := SharedStats(); after.Designs != before.Designs || after.DesignBytes != before.DesignBytes {
			t.Errorf("repeated %s: verdict memo went from %+v to %+v", c.name, before, after)
		}
	}
}

// TestSetPlanCacheBytesEmptiesTiers: resizing the shared budget rebuilds
// the verdict memo empty, so a reset before a measured run leaves nothing
// resident from earlier evaluations.
func TestSetPlanCacheBytesEmptiesTiers(t *testing.T) {
	defer SetPlanCacheBytes(0)
	p := problems.ByNumber(4)
	for _, n := range []int64{1, 0} {
		Evaluate(p, problems.LevelHigh, p.RefBody)
		if st := SharedStats(); st.Designs == 0 {
			t.Fatalf("evaluation left nothing resident: %+v", st)
		}
		SetPlanCacheBytes(n)
		if st := SharedStats(); st.Designs != 0 || st.DesignBytes != 0 {
			t.Errorf("SetPlanCacheBytes(%d) left tiers resident: %+v", n, st)
		}
	}
}

// TestSharedConcurrentEvaluations hammers one (problem, level) and a
// rotating set of candidates from many goroutines; under -race this pins
// the verdict slot's once and the first-Add-wins race together. Every
// goroutine gets one Outcome per candidate, each candidate that parses
// leaves one memo entry, each one that compiles is simulated once in
// all, and the compile failure and the unclosable candidate never are.
func TestSharedConcurrentEvaluations(t *testing.T) {
	p := problems.ByNumber(6)
	bodies := []string{
		p.RefBody,
		"  always @(posedge clk) q <= q; // shared-concurrent near-miss\nendmodule\n",
		"  shared-concurrent garbage\n",
		"  assign shared_concurrent_undeclared = 1;\nendmodule\n",
	}
	const parsed = 3 // every body but the unclosable garbage
	want := make([]Outcome, len(bodies))
	for i, b := range bodies {
		want[i] = EvaluateUnshared(p, problems.LevelMedium, b)
	}
	if want[3] != (Outcome{}) {
		t.Fatalf("the compile failure compiles: %+v", want[3])
	}
	// empty tiers, so the goroutines race on the misses too
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	sims := make([]atomic.Int32, len(bodies))
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(bodies); i++ {
				bi := (g + i) % len(bodies)
				got, res := evaluateShared(p, problems.LevelMedium, bodies[bi])
				if got != want[bi] {
					t.Errorf("body %d: concurrent outcome %+v, want %+v", bi, got, want[bi])
					return
				}
				if res != nil {
					sims[bi].Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	for bi := range bodies {
		n, w := sims[bi].Load(), int32(0)
		if want[bi].Simulated {
			w = 1
		}
		if n != w {
			t.Errorf("body %d: simulated %d times, want %d", bi, n, w)
		}
	}
	if st := SharedStats(); st.Designs != parsed || st.DesignEvicted != 0 {
		t.Errorf("verdict memo holds %d entries (%d evicted), want %d", st.Designs, st.DesignEvicted, parsed)
	}
}

// TestSingleParsePerEvaluation pins the parse economics of the shared
// pipeline: a candidate source unseen by the process-wide verdict memo
// parses exactly one text (the candidate — the testbench AST is cached
// separately), a repeat of a cached candidate parses nothing at all, and
// neither does a candidate that never closes its module.
// EvaluateUnshared keeps the legacy one-parse-per-call contract.
func TestSingleParsePerEvaluation(t *testing.T) {
	p := problems.ByNumber(6)
	Evaluate(p, problems.LevelLow, p.RefBody) // warm the verdict memo
	// re-warm the testbench AST (bounded tier; earlier tests churn it)
	if _, err := testbenchFor(p.Testbench).parsed(); err != nil {
		t.Fatal(err)
	}
	before := vlog.ParseCalls()
	o := Evaluate(p, problems.LevelLow, p.RefBody)
	if n := vlog.ParseCalls() - before; n != 0 {
		t.Errorf("repeat evaluation parsed %d texts, want 0 (memo hit)", n)
	}
	if !o.Compiles || !o.Passes {
		t.Fatalf("reference outcome = %+v", o)
	}

	// unseen compiles-but-fails candidate: exactly one parse
	before = vlog.ParseCalls()
	o = Evaluate(p, problems.LevelMedium, "  always @(posedge clk) q <= q; // single-parse near-miss\nendmodule\n")
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("near-miss evaluation parsed %d texts, want 1", n)
	}
	if !o.Compiles || o.Passes {
		t.Fatalf("near-miss outcome = %+v", o)
	}

	// unseen non-compiling candidate: one parse, then reject
	before = vlog.ParseCalls()
	o = Evaluate(p, problems.LevelLow, "  single-parse garbage tokens\nendmodule\n")
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("broken evaluation parsed %d texts, want 1", n)
	}
	if o.Compiles {
		t.Fatalf("broken outcome = %+v", o)
	}

	// unseen candidate that never closes its module: rejected unparsed
	before = vlog.ParseCalls()
	o = Evaluate(p, problems.LevelLow, "  single-parse unclosable tokens\n")
	if n := vlog.ParseCalls() - before; n != 0 {
		t.Errorf("unclosable evaluation parsed %d texts, want 0", n)
	}
	if o.Compiles {
		t.Fatalf("unclosable outcome = %+v", o)
	}

	// the unshared baseline parses the candidate on every call
	before = vlog.ParseCalls()
	o = EvaluateUnshared(p, problems.LevelLow, p.RefBody)
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("unshared evaluation parsed %d texts, want 1", n)
	}
	if !o.Compiles || !o.Passes {
		t.Fatalf("unshared reference outcome = %+v", o)
	}
}

// TestCompileVerdictWithoutTestbench pins the fallback semantics: when the
// testbench cannot be used, the Compiles verdict must still be derived
// from the already-parsed DUT source, never from a second full parse.
func TestCompileVerdictWithoutTestbench(t *testing.T) {
	// A copy of problem 6 with a corrupted bench exercises the path
	// directly; the testbench-text cache key keeps the corrupt AST from
	// leaking into real problem 6 evaluations despite the shared Number.
	base := problems.ByNumber(6)
	broken := *base
	broken.Testbench = "module tb; this does not parse"
	o := Evaluate(&broken, problems.LevelLow, base.RefBody)
	if !o.Compiles {
		t.Error("DUT that compiles must keep Compiles=true when the bench is unusable")
	}
	if o.Passes {
		t.Error("no simulation ran, Passes must be false")
	}
}

// unclosable are completions without the text endmodule: nothing, near
// spellings of the keyword, and a babble line.
var unclosable = []string{"", "endmodul", "end module", "ENDMODULE", "end/**/module",
	"  the module ends when the output reg is assigned\n"}

// TestUnclosableCandidateIsNotParsed: behind a split prompt, a
// completion that cannot close its module is rejected before
// truncation, the memo and the parser, with EvaluateUnshared's verdict,
// and allocates nothing once the prompt tier holds its prompt. Behind a
// prompt that cannot be split the rule does not hold, so there such a
// completion still parses, once: here the prompt is a whole module, and
// the empty completion passes.
func TestUnclosableCandidateIsNotParsed(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			if !promptFor(p, l).pre.Split() {
				t.Fatalf("problem %d/%s: the prompt cannot be split", p.Number, l)
			}
			for _, c := range unclosable {
				want := EvaluateUnshared(p, l, c)
				parses, st := vlog.ParseCalls(), SharedStats()
				got, res := evaluateShared(p, l, c)
				if got != (Outcome{}) || got != want || res != nil {
					t.Errorf("problem %d/%s %q: %+v (simulated %t), unshared %+v, want no compile",
						p.Number, l, c, got, res != nil, want)
				}
				if n := vlog.ParseCalls() - parses; n != 0 {
					t.Errorf("problem %d/%s %q: parsed %d texts, want 0", p.Number, l, c, n)
				}
				after := SharedStats()
				if n := after.DesignHits + after.DesignMisses - st.DesignHits - st.DesignMisses; n != 0 {
					t.Errorf("problem %d/%s %q: %d memo lookups, want 0", p.Number, l, c, n)
				}
				if allocs := testing.AllocsPerRun(10, func() { Evaluate(p, l, c) }); allocs != 0 {
					t.Errorf("problem %d/%s %q: allocated %.0f times, want 0", p.Number, l, c, allocs)
				}
			}
		}
	}

	base := problems.ByNumber(6)
	cp := *base
	p := &cp
	whole := newPrompt(base.Prompt(problems.LevelLow) + base.RefBody)
	if whole.pre.Split() {
		t.Fatal("a prompt holding a whole module was split")
	}
	prompts.Add(promptKey{p, problems.LevelLow}, whole, 1)
	if _, err := testbenchFor(p.Testbench).parsed(); err != nil {
		t.Fatal(err)
	}
	parses := vlog.ParseCalls()
	if got := Evaluate(p, problems.LevelLow, ""); got != (Outcome{Compiles: true, Simulated: true, Passes: true}) {
		t.Errorf("the empty completion after a whole module: %+v, want a simulated pass", got)
	}
	if n := vlog.ParseCalls() - parses; n != 1 {
		t.Errorf("the empty completion after an unsplittable prompt parsed %d texts, want 1", n)
	}
}
