package eval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
)

// sharedDiffCompletions samples a realistic completion mix for the
// differential suite: the reference body plus model completions at four
// temperatures (passing, near-miss, and garbage candidates all occur).
func sharedDiffCompletions(t *testing.T, p *problems.Problem, level problems.Level) []string {
	t.Helper()
	f := model.NewFamily(model.Config{Seed: 41, CorpusFiles: 60, VocabSize: 300})
	g, ok := f.Generator(model.CodeGen2B, model.FineTuned)
	if !ok {
		t.Fatal("no generator")
	}
	out := []string{p.RefBody}
	for _, temp := range []float64{0.1, 0.3, 0.5, 0.8} {
		for _, s := range g.CompleteN(p, level, temp, 2, 1234) {
			out = append(out, s.Completion)
		}
	}
	return out
}

// TestSharedMatchesFreshAndInterpreter is the tentpole's byte-identity
// contract at the evaluation layer: for every problem, level, and a mix
// of sampled completions, the shared pipeline (skeleton splice, design
// cache, plan cache, pooled simulators) must agree with the fresh
// pipeline and with the AST interpreter on the verdict and on the raw
// simulation output, bit for bit.
func TestSharedMatchesFreshAndInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("full problems x levels x temps differential sweep")
	}
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			for ci, c := range sharedDiffCompletions(t, p, l) {
				os, rs := evaluateShared(p, l, c)
				of, rf := evaluateSim(p, l, c, sim.Options{})
				oi, ri := evaluateSim(p, l, c, sim.Options{Interpret: true})
				label := fmt.Sprintf("problem %d/%s completion %d", p.Number, l, ci)
				if os != of || os != oi {
					t.Errorf("%s: verdicts diverged: shared %+v, fresh %+v, interpreted %+v",
						label, os, of, oi)
				}
				if rs.Output != rf.Output || rs.Output != ri.Output {
					t.Errorf("%s: outputs diverged:\nshared:      %q\nfresh:       %q\ninterpreted: %q",
						label, rs.Output, rf.Output, ri.Output)
				}
				if rs.Time != rf.Time || rs.Steps != rf.Steps || rs.Finished != rf.Finished {
					t.Errorf("%s: result metadata diverged: shared %+v, fresh %+v", label, rs, rf)
				}
			}
		}
	}
}

// TestSharedSweepMatchesUnsharedAtAnyWidth pins the Runner-level contract
// the check scripts rely on: cell statistics are identical whether plans
// are shared (default) or compiled fresh per sample (UnsharedPlans), at
// one worker or eight.
func TestSharedSweepMatchesUnsharedAtAnyWidth(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 29, CorpusFiles: 60, VocabSize: 300})
	mk := func(unshared bool, workers int) *Runner {
		r := NewFamilyRunner(f, 53)
		r.UnsharedPlans = unshared
		r.Workers = workers
		return r
	}
	runners := []*Runner{mk(true, 1), mk(false, 1), mk(false, 8)}
	names := []string{"unshared/w1", "shared/w1", "shared/w8"}
	mv := ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	for _, pn := range []int{2, 6, 11} {
		for _, temp := range []float64{0.1, 0.3, 0.5, 0.8} {
			q := Query{Model: mv.Model, Variant: mv.Variant,
				Problem: problems.ByNumber(pn), Level: problems.LevelHigh, Temperature: temp, N: 5}
			want := runners[0].Run(q)
			for i, r := range runners[1:] {
				if got := r.Run(q); got != want {
					t.Errorf("problem %d t=%.1f: %s diverged from %s: %+v != %+v",
						pn, temp, names[i+1], names[0], got, want)
				}
			}
		}
	}
}

// TestSharedEvictionRecomputesIdentically squeezes both shared tiers to
// near-zero budget so designs and plans evict constantly, then verifies
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
				if os != of || rs.Output != rf.Output {
					t.Errorf("problem %d/%s: starved shared pipeline diverged: %+v/%q vs %+v/%q",
						pn, l, os, rs.Output, of, rf.Output)
				}
			}
		}
	}
	after := SharedStats()
	if after.DesignEvicted <= before.DesignEvicted {
		t.Errorf("design cache evicted nothing under a 1-byte budget: %+v", after)
	}
	if after.Plans.Evictions == 0 {
		t.Errorf("plan cache evicted nothing under a 1-byte budget: %+v", after.Plans)
	}
}

// TestDesignTierAdmitsOnlySimulatedCandidates pins the design tier's
// admission rule and its accepted cost. Of a parse failure, a compile
// failure, a candidate whose bench does not elaborate and the reference,
// only the reference is stored. A repeated parse failure therefore parses
// again: failures are memoized per Runner, by the outcome cache.
func TestDesignTierAdmitsOnlySimulatedCandidates(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	p := problems.ByNumber(6)
	badBench := *p
	badBench.Testbench = "module tb;\n  reg clk;\n  counter dut(.clk(clk), .no_such_port(clk));\nendmodule\n"
	garbage := "  design-tier garbage tokens\n"
	cases := []struct {
		name       string
		p          *problems.Problem
		completion string
		want       Outcome
		stored     int
	}{
		{"parse failure", p, garbage, Outcome{}, 0},
		{"compile failure", p, "  assign design_tier_undeclared = 1;\nendmodule\n", Outcome{}, 0},
		{"bench does not elaborate", &badBench, p.RefBody, Outcome{Compiles: true}, 0},
		{"reference", p, p.RefBody, Outcome{Compiles: true, Simulated: true, Passes: true}, 1},
	}
	for _, c := range cases {
		before := SharedStats().Designs
		if got := Evaluate(c.p, problems.LevelLow, c.completion); got != c.want {
			t.Errorf("%s: outcome %+v, want %+v", c.name, got, c.want)
		}
		if n := SharedStats().Designs - before; n != c.stored {
			t.Errorf("%s: design tier grew by %d, want %d", c.name, n, c.stored)
		}
	}
	before := vlog.ParseCalls()
	if got := Evaluate(p, problems.LevelLow, garbage); got != (Outcome{}) {
		t.Errorf("repeated parse failure: outcome %+v", got)
	}
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("repeated parse failure parsed %d texts, want 1", n)
	}
}

// TestSetPlanCacheBytesEmptiesTiers: resizing the shared budgets rebuilds
// the design and plan tiers empty, so a reset before a measured run
// leaves nothing resident from earlier evaluations.
func TestSetPlanCacheBytesEmptiesTiers(t *testing.T) {
	defer SetPlanCacheBytes(0)
	p := problems.ByNumber(4)
	for _, n := range []int64{1, 0} {
		Evaluate(p, problems.LevelHigh, p.RefBody)
		if st := SharedStats(); st.Designs == 0 || st.Plans.Entries == 0 {
			t.Fatalf("evaluation left nothing resident: %+v", st)
		}
		SetPlanCacheBytes(n)
		if st := SharedStats(); st.Designs != 0 || st.DesignBytes != 0 || st.Plans.Entries != 0 {
			t.Errorf("SetPlanCacheBytes(%d) left tiers resident: %+v", n, st)
		}
	}
}

// TestSharedConcurrentEvaluations hammers one (problem, level) and a
// rotating set of candidates from many goroutines; under -race this pins
// the design-slot once, the simulator pool, and the plan cache together.
func TestSharedConcurrentEvaluations(t *testing.T) {
	p := problems.ByNumber(6)
	bodies := []string{
		p.RefBody,
		"  always @(posedge clk) q <= q; // shared-concurrent near-miss\nendmodule\n",
		"  shared-concurrent garbage\n",
	}
	want := make([]Outcome, len(bodies))
	for i, b := range bodies {
		want[i] = Evaluate(p, problems.LevelMedium, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				bi := (g + i) % len(bodies)
				if got := Evaluate(p, problems.LevelMedium, bodies[bi]); got != want[bi] {
					t.Errorf("body %d: concurrent outcome %+v, want %+v", bi, got, want[bi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
