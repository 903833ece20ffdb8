package verdict_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/verdict"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
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

// benchReplay judges a completion the way the benchmark's traced stage
// replay does, through the names it compiles against: a testbench
// Skeleton over HoleModules, Splice, and a simulator handed a PlanCache.
func benchReplay(p *problems.Problem, l problems.Level, c string) (verdict.Outcome, sim.Result) {
	f, err := vlog.Parse(p.CompleteWith(l, verdict.Truncate(c)))
	if err != nil || elab.CompileCheck(f) != nil {
		return verdict.Outcome{}, sim.Result{}
	}
	tb, err := vlog.Parse(p.Testbench)
	if err != nil {
		return verdict.Outcome{Compiles: true}, sim.Result{}
	}
	sk, err := elab.NewSkeleton(tb, "tb", elab.HoleModules(tb), elab.Options{})
	if err != nil {
		return verdict.Outcome{Compiles: true}, sim.Result{}
	}
	d, err := sk.Splice(f)
	if err != nil {
		return verdict.Outcome{Compiles: true}, sim.Result{}
	}
	res, err := sim.New(d, sim.Options{Plans: sim.NewPlanCache(0)}).Run()
	return verdict.Outcome{Compiles: true, Simulated: true, Passes: err == nil && problems.PassVerdict(res.Output)}, res
}

// TestSharedMatchesFreshAndInterpreter is the byte-identity contract at
// the evaluation layer: for every problem, level, and a mix of sampled
// completions, the shared pipeline (prefixed parse, verdict memo) must
// agree with the fresh pipeline, with the AST interpreter and with the
// benchmark's stage replay. On a memo miss that simulates, the raw
// simulation output must agree bit for bit; a memo hit, which runs
// nothing, must give the same verdict.
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
			if ob, rb := benchReplay(p, l, c); ob != of || rb.Output != rf.Output {
				t.Errorf("%s: fresh %+v/%q and bench replay %+v/%q diverged", label, of, rf.Output, ob, rb.Output)
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
// first evaluation of a new (problem, prompt class, truncated
// completion) simulates; a truncation repeat, the same completion at
// another level of the class and every second evaluation are hits that
// simulate nothing; and all of them give EvaluateUnshared's verdict. A
// prompt class is the prompt's token signature, so the audit's key is
// computed independently of the memo's interned handles.
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
		class string
		src   string
	}
	class := func(p *problems.Problem, l problems.Level) string {
		sig := vlog.LexPrefix(p.Prompt(l)).Signature()
		if sig == "" {
			t.Fatalf("problem %d/%s: the prompt cannot be split, so it has no class to share", p.Number, l)
		}
		return sig
	}
	simulatedAt := map[memoKey]problems.Level{} // the level that simulated
	var misses, repeats, crossLevel int
	for i, c := range cands {
		want := verdict.EvaluateUnshared(c.p, c.level, c.completion)
		k := memoKey{c.p, class(c.p, c.level), verdict.Truncate(c.completion)}
		at, simulated := simulatedAt[k]
		for pass := 0; pass < 2; pass++ {
			got, res := verdict.EvaluateShared(c.p, c.level, c.completion)
			if got != want {
				t.Errorf("candidate %d (problem %d/%s) pass %d: memo %+v, unshared %+v",
					i, c.p.Number, c.level, pass, got, want)
			}
			if ran, miss := res != nil, want.Simulated && pass == 0 && !simulated; ran != miss {
				t.Errorf("candidate %d (problem %d/%s) pass %d: simulated %t, want %t",
					i, c.p.Number, c.level, pass, ran, miss)
			}
		}
		switch {
		case !want.Simulated:
		case !simulated:
			misses++
			simulatedAt[k] = c.level
		case at == c.level:
			repeats++
		default:
			crossLevel++
		}
	}
	if misses == 0 || repeats == 0 || crossLevel == 0 {
		t.Errorf("%d candidates: %d simulated misses, %d truncation repeats and %d cross-level hits; the audit exercised too little",
			len(cands), misses, repeats, crossLevel)
	}
	t.Logf("%d distinct candidates: %d simulated once, %d truncation repeats, %d cross-level hits",
		len(cands), misses, repeats, crossLevel)
}

// FuzzVerdictAcrossLevels: a completion's verdict does not depend on
// the prompt level. The paper's three prompts of a problem differ only
// in comments, so EvaluateUnshared must agree at L, M and H, and
// Evaluate, whose memo shares a verdict across the levels of a prompt
// token class, must give that verdict at every level. The seeds are
// each problem's reference, draws from its variant bank's pools,
// mutants of its reference, and texts where truncation must jump past
// an occurrence of endmodule that is not the keyword, or finds none.
func FuzzVerdictAcrossLevels(f *testing.F) {
	bank := model.NewVariantBank(1)
	for i, p := range problems.All() {
		rng := rand.New(rand.NewSource(int64(p.Number)))
		f.Add(uint8(i), p.RefBody)
		for _, body := range []string{
			"  // endmodule\n" + p.RefBody,
			"  /* endmodule */\n" + p.RefBody,
			"`define E endmodule\n" + p.RefBody,
			"  initial $display(\"endmodule\");\n" + p.RefBody,
			"  initial $display(\"\\\" endmodule \\\"\");\n" + p.RefBody,
			"  wire xendmodule; endmodule\n",
			"  wire endmoduleendmodule; endmodule\n",
			"  initial $endmodule;\n" + p.RefBody,
			"endmodule\n" + p.RefBody,
			strings.TrimSuffix(p.RefBody, "\n"),
			"  the module ends when the output reg is assigned\n",
		} {
			f.Add(uint8(i), body)
		}
		f.Add(uint8(i), bank.Correct(p, rng))
		f.Add(uint8(i), bank.Broken(p, rng))
		if body, ok := bank.NearMiss(p, rng); ok {
			f.Add(uint8(i), body)
		}
		for n := 0; n < 2; n++ {
			res, err := mutate.Apply(p.ReferenceSource(), rng)
			if err != nil {
				continue
			}
			if body, ok := model.BehaviouralTail(res.Source); ok {
				f.Add(uint8(i), body)
			}
		}
	}
	all := problems.All()
	f.Fuzz(func(t *testing.T, n uint8, completion string) {
		p := all[int(n)%len(all)]
		want := verdict.EvaluateUnshared(p, problems.LevelLow, completion)
		for _, l := range problems.Levels {
			if got := verdict.EvaluateUnshared(p, l, completion); got != want {
				t.Fatalf("problem %d: unshared verdict %+v at %s, %+v at L\ncompletion: %q", p.Number, got, l, want, completion)
			}
			if got := verdict.Evaluate(p, l, completion); got != want {
				t.Fatalf("problem %d: shared verdict %+v at %s, unshared %+v\ncompletion: %q", p.Number, got, l, want, completion)
			}
		}
	})
}
