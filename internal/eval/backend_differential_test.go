package eval

import (
	"testing"

	"repro/internal/model"
	"repro/internal/problems"
)

// TestFamilyBackendMatchesDirectFamily is the refactor's differential
// proof: the family backend behind the gen.Backend interface must produce
// byte-identical sweep output to the pre-refactor engine, which called
// model.Family.Generator/CompleteAt directly. The reference below *is*
// that old engine — the same generator lookup, the same hashed base
// seeds, the same per-sample evaluation, reduced serially in sample
// order — and EvaluateBatch must match it bit for bit (float latency
// sums included) at every paper temperature and at pool widths 1 and 8.
func TestFamilyBackendMatchesDirectFamily(t *testing.T) {
	fam := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 40})

	mvs := []ModelVariant{
		{Model: model.CodeGen16B, Variant: model.FineTuned},
		{Model: model.Megatron355M, Variant: model.Pretrained},
		{Model: model.Codex, Variant: model.Pretrained},
		{Model: model.Codex, Variant: model.FineTuned}, // not evaluated: must stay empty
	}
	var qs []Query
	for _, mv := range mvs {
		for _, pn := range []int{1, 6, 9} {
			for _, l := range []problems.Level{problems.LevelLow, problems.LevelHigh} {
				for _, temp := range Temperatures { // all five paper temperatures
					qs = append(qs, Query{
						Model: mv.Model, Variant: mv.Variant,
						Problem: problems.ByNumber(pn), Level: l, Temperature: temp, N: 3,
					})
				}
			}
		}
	}

	// The reference run: pre-refactor semantics, serial.
	seedSrc := NewFamilyRunner(fam, 99) // querySeed depends only on Runner.Seed
	ref := make([]CellStats, len(qs))
	for qi, q := range qs {
		g, ok := fam.Generator(q.Model, q.Variant)
		if !ok {
			continue // zero CellStats, as the old engine scored missing variants
		}
		base := seedSrc.querySeed(q)
		for si := 0; si < q.N; si++ {
			s := g.CompleteAt(q.Problem, q.Level, q.Temperature, si, base)
			o := Evaluate(q.Problem, q.Level, s.Completion)
			ref[qi].Samples++
			if o.Compiles {
				ref[qi].Compiled++
			}
			if o.Passes {
				ref[qi].Passed++
			}
			ref[qi].SumLat += s.Latency
		}
	}

	for _, workers := range []int{1, 8} {
		r := NewFamilyRunner(fam, 99)
		r.Workers = workers
		got := r.EvaluateBatch(qs)
		for qi := range qs {
			if got[qi] != ref[qi] {
				t.Fatalf("workers=%d query %d (%s/%s p%d %s t=%.1f): %+v != reference %+v",
					workers, qi, qs[qi].Model, qs[qi].Variant, qs[qi].Problem.Number,
					qs[qi].Level, qs[qi].Temperature, got[qi], ref[qi])
			}
		}
	}
}
