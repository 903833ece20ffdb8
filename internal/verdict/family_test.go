package verdict_test

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/verdict"
)

// These tests draw their candidates from a model family, and model
// judges its variant bank through this package, so they live in the
// external test package. Building a family's banks fills the shared
// tiers with LevelLow verdicts; each test empties the tiers after
// collecting its candidates, so its misses and hits are its own.

// sharedDiffCompletions samples a realistic completion mix for the
// differential suite: the reference body plus model completions at four
// temperatures (passing, near-miss, and garbage candidates all occur).
func sharedDiffCompletions(t *testing.T, g *model.Generator, p *problems.Problem, level problems.Level) []string {
	t.Helper()
	out := []string{p.RefBody}
	for _, temp := range []float64{0.1, 0.3, 0.5, 0.8} {
		for _, s := range g.CompleteN(p, level, temp, 2, 1234) {
			out = append(out, s.Completion)
		}
	}
	return out
}

// TestSharedMatchesFreshAndInterpreter is the byte-identity contract at
// the evaluation layer: for every problem, level, and a mix of sampled
// completions, the shared pipeline (prefixed parse, verdict memo) must
// agree with the fresh pipeline and with the AST interpreter.
// On a memo miss that simulates, the raw simulation output must agree
// bit for bit; a memo hit, which runs nothing, must give the same
// verdict.
func TestSharedMatchesFreshAndInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("full problems x levels x temps differential sweep")
	}
	f := model.NewFamily(model.Config{Seed: 41, CorpusFiles: 60})
	g, ok := f.Generator(model.CodeGen2B, model.FineTuned)
	if !ok {
		t.Fatal("no generator")
	}
	type pl struct {
		p     *problems.Problem
		level problems.Level
	}
	var order []pl
	cands := map[pl][]string{}
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			order = append(order, pl{p, l})
			cands[pl{p, l}] = sharedDiffCompletions(t, g, p, l)
		}
	}
	verdict.SetPlanCacheBytes(0)
	t.Cleanup(func() { verdict.SetPlanCacheBytes(0) })
	misses, hits := 0, 0
	for _, k := range order {
		p, l := k.p, k.level
		for ci, c := range cands[k] {
			label := fmt.Sprintf("problem %d/%s completion %d", p.Number, l, ci)
			of, rf := verdict.EvaluateSim(p, l, c, sim.Options{})
			oi, ri := verdict.EvaluateSim(p, l, c, sim.Options{Interpret: true})
			if of != oi || rf.Output != ri.Output {
				t.Errorf("%s: fresh %+v/%q and interpreted %+v/%q diverged", label, of, rf.Output, oi, ri.Output)
			}
			for pass := 0; pass < 2; pass++ {
				os, rs := verdict.EvaluateShared(p, l, c)
				if os != of {
					t.Errorf("%s pass %d: verdicts diverged: shared %+v, fresh %+v", label, pass, os, of)
				}
				switch {
				case rs != nil:
					misses++
					if pass > 0 {
						t.Errorf("%s: a repeat simulated again", label)
					}
					if rs.Output != rf.Output {
						t.Errorf("%s: outputs diverged:\nshared: %q\nfresh:  %q", label, rs.Output, rf.Output)
					}
					if rs.Time != rf.Time || rs.Steps != rf.Steps || rs.Finished != rf.Finished {
						t.Errorf("%s: result metadata diverged: shared %+v, fresh %+v", label, *rs, rf)
					}
				case os.Simulated:
					hits++
				}
			}
		}
	}
	if misses == 0 || hits == 0 {
		t.Errorf("%d simulating misses and %d memo hits: the sweep did not exercise both", misses, hits)
	}
}

// TestVerdictMemoAudit takes every distinct candidate of a small family
// sweep (two variants, every problem and level, three temperatures, five
// samples each) and checks the memo against the unshared pipeline: the
// first evaluation of a new truncated source simulates, a truncation
// repeat and every second evaluation are hits that simulate nothing, and
// all of them give EvaluateUnshared's verdict.
func TestVerdictMemoAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep of every problem and level")
	}
	f := model.NewFamily(model.Config{Seed: 7, CorpusFiles: 60})
	type cand struct {
		p          *problems.Problem
		level      problems.Level
		completion string
	}
	var cands []cand
	seen := map[cand]bool{}
	for _, mv := range []struct {
		id model.ID
		v  model.Variant
	}{{model.CodeGen16B, model.FineTuned}, {model.CodeGen2B, model.Pretrained}} {
		g, ok := f.Generator(mv.id, mv.v)
		if !ok {
			t.Fatalf("no generator for %+v", mv)
		}
		for _, p := range problems.All() {
			for _, l := range problems.Levels {
				for _, temp := range []float64{0.1, 0.5, 0.8} {
					for _, s := range g.CompleteN(p, l, temp, 5, 99) {
						if c := (cand{p, l, s.Completion}); !seen[c] {
							seen[c] = true
							cands = append(cands, c)
						}
					}
				}
			}
		}
	}
	// collecting the candidates built the family's banks, whose verdicts
	// are memo entries now: start the audit from empty tiers
	verdict.SetPlanCacheBytes(0)
	t.Cleanup(func() { verdict.SetPlanCacheBytes(0) })
	type memoKey struct {
		p     *problems.Problem
		level problems.Level
		src   string
	}
	simulated := map[memoKey]bool{}
	var misses, repeats int
	for i, c := range cands {
		want := verdict.EvaluateUnshared(c.p, c.level, c.completion)
		k := memoKey{c.p, c.level, verdict.Truncate(c.completion)}
		for pass := 0; pass < 2; pass++ {
			got, res := verdict.EvaluateShared(c.p, c.level, c.completion)
			if got != want {
				t.Errorf("candidate %d (problem %d/%s) pass %d: memo %+v, unshared %+v",
					i, c.p.Number, c.level, pass, got, want)
			}
			if ran, miss := res != nil, want.Simulated && pass == 0 && !simulated[k]; ran != miss {
				t.Errorf("candidate %d (problem %d/%s) pass %d: simulated %t, want %t",
					i, c.p.Number, c.level, pass, ran, miss)
			}
		}
		if want.Simulated {
			if simulated[k] {
				repeats++
			} else {
				misses++
			}
			simulated[k] = true
		}
	}
	if misses == 0 || repeats == 0 {
		t.Errorf("%d candidates: %d simulated misses and %d truncation repeats; the audit exercised too little",
			len(cands), misses, repeats)
	}
	t.Logf("%d distinct candidates: %d simulated once, %d truncation repeats", len(cands), misses, repeats)
}
