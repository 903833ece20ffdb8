package eval

import (
	"testing"

	"repro/internal/model"
	"repro/internal/problems"
)

// TestMemoHitDoesNotSimulate: a completion that differs from the
// reference only after endmodule truncates to the reference's source, so
// after one evaluation every further one is a verdict-memo hit. A hit
// costs the truncation and the key, a few allocations, where a
// simulation costs thousands.
func TestMemoHitDoesNotSimulate(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	p := problems.ByNumber(6)
	babble := p.RefBody + "\n// memo-hit babble\nmodule extra; endmodule\n"
	if Truncate(babble) != Truncate(p.RefBody) {
		t.Fatal("the babble survived truncation")
	}
	want := Outcome{Compiles: true, Simulated: true, Passes: true}
	if got := Evaluate(p, problems.LevelHigh, babble); got != want {
		t.Fatalf("first evaluation: %+v, want %+v", got, want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := Evaluate(p, problems.LevelHigh, babble); got != want {
			t.Fatalf("repeat evaluation: %+v, want %+v", got, want)
		}
	})
	if allocs > 4 {
		t.Errorf("a memo hit allocated %.0f times, want at most 4", allocs)
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
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	f := model.NewFamily(model.Config{Seed: 7, CorpusFiles: 60})
	type cand struct {
		p          *problems.Problem
		level      problems.Level
		completion string
	}
	var cands []cand
	seen := map[cand]bool{}
	for _, mv := range []ModelVariant{{model.CodeGen16B, model.FineTuned}, {model.CodeGen2B, model.Pretrained}} {
		g, ok := f.Generator(mv.Model, mv.Variant)
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
	type memoKey struct {
		p     *problems.Problem
		level problems.Level
		src   string
	}
	simulated := map[memoKey]bool{}
	var misses, repeats int
	for i, c := range cands {
		want := EvaluateUnshared(c.p, c.level, c.completion)
		k := memoKey{c.p, c.level, Truncate(c.completion)}
		for pass := 0; pass < 2; pass++ {
			got, res := evaluateShared(c.p, c.level, c.completion)
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
