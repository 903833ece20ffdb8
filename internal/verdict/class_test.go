package verdict

import (
	"strings"
	"testing"

	"repro/internal/problems"
)

// TestCrossLevelHitDoesNotSimulate: a problem's three prompts differ
// only in comments, so they share one token class, and a completion
// simulated at LevelLow is a memo hit at LevelHigh. The hit costs what
// a same-level hit costs (TestMemoHitDoesNotSimulate).
func TestCrossLevelHitDoesNotSimulate(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	p := problems.ByNumber(6)
	if lo, hi := promptFor(p, problems.LevelLow).class, promptFor(p, problems.LevelHigh).class; lo != hi {
		t.Fatal("problem 6's low and high prompts fell in different classes")
	}
	want := Outcome{Compiles: true, Simulated: true, Passes: true}
	if got, res := evaluateShared(p, problems.LevelLow, p.RefBody); got != want || res == nil {
		t.Fatalf("low: %+v (simulated %t), want %+v from a simulation", got, res != nil, want)
	}
	if got, res := evaluateShared(p, problems.LevelHigh, p.RefBody); got != want || res != nil {
		t.Fatalf("high: %+v (simulated %t), want %+v from the memo", got, res != nil, want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := Evaluate(p, problems.LevelHigh, p.RefBody); got != want {
			t.Fatalf("repeat high evaluation: %+v, want %+v", got, want)
		}
	})
	if allocs > 4 {
		t.Errorf("a cross-level memo hit allocated %.0f times, want at most 4", allocs)
	}
	if st := SharedStats(); st.Designs != 1 {
		t.Errorf("%d memo entries after one completion at two levels, want 1", st.Designs)
	}
}

// TestPromptClassesKeepVerdictsApart: a prompt that declares one more
// wire has other tokens, so it falls in another class, and a completion
// that reads the wire gets its own verdict at each level. The Problem
// copy's medium prompt is put in the prompt tier directly, since a
// Problem's prompts are fixed when it is built.
func TestPromptClassesKeepVerdictsApart(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	base := problems.ByNumber(6)
	cp := *base
	p := &cp
	prompts.Add(promptKey{p, problems.LevelMedium}, newPrompt(base.Prompt(problems.LevelMedium)+"  wire extra;\n"), 1)
	lo, mid, hi := promptFor(p, problems.LevelLow), promptFor(p, problems.LevelMedium), promptFor(p, problems.LevelHigh)
	if mid.pre.Signature() == "" {
		t.Fatal("the medium prompt with a declaration cannot be split")
	}
	if lo.class == mid.class || hi.class == mid.class {
		t.Error("the prompt with an extra declaration shares its class")
	}
	if lo.class != hi.class {
		t.Error("the low and high prompts fell in different classes")
	}

	completion := "  assign extra = 1'b1;\n" + base.RefBody
	if got, res := evaluateShared(p, problems.LevelMedium, completion); got != (Outcome{Compiles: true, Simulated: true, Passes: true}) || res == nil {
		t.Errorf("medium: %+v (simulated %t), want a simulated pass", got, res != nil)
	}
	for _, l := range []problems.Level{problems.LevelLow, problems.LevelHigh} {
		if got := Evaluate(p, l, completion); got != (Outcome{}) {
			t.Errorf("%s: %+v, want no compile: extra is undeclared there", l, got)
		}
	}
	if got, res := evaluateShared(p, problems.LevelMedium, completion); !got.Passes || res != nil {
		t.Errorf("medium repeat: %+v (simulated %t), want the memo's pass", got, res != nil)
	}
}

// TestUnsplittablePromptHasItsOwnClass: a prompt LexPrefix cannot
// split (here, one without its trailing newline) has no signature, so
// it gets a class no other prompt shares, even one of equal text or of
// equal tokens, and its verdicts are its own.
func TestUnsplittablePromptHasItsOwnClass(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	base := problems.ByNumber(6)
	text := strings.TrimSuffix(base.Prompt(problems.LevelLow), "\n")
	a, b, whole := newPrompt(text), newPrompt(text), newPrompt(text+"\n")
	if a.pre.Signature() != "" {
		t.Fatal("a prompt without its trailing newline was split")
	}
	if a.class == b.class || a.class == whole.class {
		t.Error("an unsplittable prompt shares its class")
	}

	cp := *base
	p := &cp
	prompts.Add(promptKey{p, problems.LevelLow}, a, 1)
	want := Outcome{Compiles: true, Simulated: true, Passes: true}
	for _, l := range []problems.Level{problems.LevelHigh, problems.LevelLow} {
		if got, res := evaluateShared(p, l, base.RefBody); got != want || res == nil {
			t.Errorf("%s: %+v (simulated %t), want %+v from its own simulation", l, got, res != nil, want)
		}
	}
}
