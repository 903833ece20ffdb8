package model

import (
	"testing"

	"repro/internal/problems"
)

// TestFrozenFamilyMatchesMapFamily is the generation-front-end
// equivalence contract: two families differing only in Config.MapSampler
// must emit byte-identical completions (text, mechanism, and latency) for
// every (problem, level, temperature) cell and sample stream. Megatron
// pre-trained has the lowest priors, so its samples exercise the
// babble path — the only mechanism that actually runs the n-gram
// sampler — constantly.
func TestFrozenFamilyMatchesMapFamily(t *testing.T) {
	frozen := NewFamily(Config{Seed: 3, CorpusFiles: 25})
	mapped := NewFamily(Config{Seed: 3, CorpusFiles: 25, MapSampler: true})
	for _, id := range []ID{Megatron355M, CodeGen16B} {
		gf, ok := frozen.Generator(id, Pretrained)
		if !ok {
			t.Fatalf("no generator for %s", id)
		}
		gm, _ := mapped.Generator(id, Pretrained)
		for _, p := range problems.All() {
			for _, level := range problems.Levels {
				for _, temp := range []float64{0.1, 0.5, 1.0} {
					base := int64(p.Number)*1000 + int64(level)*100 + int64(temp*10)
					for idx := 0; idx < 3; idx++ {
						sf := gf.CompleteAt(p, level, temp, idx, base)
						sm := gm.CompleteAt(p, level, temp, idx, base)
						if sf != sm {
							t.Fatalf("%s problem %d %s t=%.1f idx %d diverged:\nfrozen: %q (%s)\nmap:    %q (%s)",
								id, p.Number, level, temp, idx,
								sf.Completion, sf.Mechanism, sm.Completion, sm.Mechanism)
						}
					}
				}
			}
		}
	}
}

// TestBabbleAllocatesOnlyItsString pins the babble path's garbage: with
// the LM trained, the prompt encoded and the temperature's weight table
// built, one babble draw allocates exactly one object, its completion
// string. The token buffer lives on the stack and the decode writes the
// indent, text and newline in one allocation.
func TestBabbleAllocatesOnlyItsString(t *testing.T) {
	f := NewFamily(Config{Seed: 1, CorpusFiles: 25})
	g, _ := f.Generator(Megatron355M, FineTuned)
	p := problems.All()[5]
	for _, temp := range []float64{0.1, 0.5, 1.0} {
		rng := SampleRand(7)
		if s := g.babble(p, problems.LevelMedium, temp, rng); len(s) < 4 || s[:2] != "  " || s[len(s)-1] != '\n' {
			t.Fatalf("t=%v: babble %q is not an indented line", temp, s)
		}
		if allocs := testing.AllocsPerRun(100, func() { g.babble(p, problems.LevelMedium, temp, rng) }); allocs != 1 {
			t.Fatalf("t=%v: a babble draw allocates %.1f objects, want 1", temp, allocs)
		}
	}
}
