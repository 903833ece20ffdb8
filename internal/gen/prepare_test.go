package gen_test

import (
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

var prepareCfg = model.Config{Seed: 5, CorpusFiles: 60}

// TestFamilyPrepareTaskCount pins what the family's prepare phase covers:
// one task per distinct babble LM (NgramOrder, Variant) — the catalog's
// eleven lines train eight — plus one per problem's variant-bank entry.
func TestFamilyPrepareTaskCount(t *testing.T) {
	b := gen.NewFamilyBackend(model.NewFamily(prepareCfg))
	keys := b.Variants()
	all := problems.All()
	if got := len(b.Prepare(keys, all)); got != 8+17 {
		t.Errorf("Prepare over the catalog and all problems: %d tasks, want 8 LMs + 17 banks", got)
	}
	if got := len(b.Prepare(append(keys, keys...), all)); got != 8+17 {
		t.Errorf("repeated keys: %d tasks, want the LMs deduplicated to 8 (+17 banks)", got)
	}
	unknown := []gen.Key{{Model: "no-such-model", Variant: gen.VariantPT}, {Model: string(model.Codex), Variant: gen.VariantFT}}
	if got := len(b.Prepare(unknown, all[:2])); got != 2 {
		t.Errorf("keys the family does not serve: %d tasks, want only the 2 banks", got)
	}
}

// TestFamilyPrepareMatchesLazy runs every prepare task of the full
// catalog concurrently (under -race in the Makefile's race target), then
// requires the prepared family to produce, over a (key, problem, level,
// temperature, index) grid, exactly the samples of a fresh family that
// never prepared and built everything lazily inside Complete.
func TestFamilyPrepareMatchesLazy(t *testing.T) {
	prepared := gen.NewFamilyBackend(model.NewFamily(prepareCfg))
	lazy := gen.NewFamilyBackend(model.NewFamily(prepareCfg))
	keys := prepared.Variants()
	tasks := prepared.Prepare(keys, problems.All())
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task()
		}()
	}
	wg.Wait()

	for _, k := range keys {
		for _, p := range problems.All() {
			for _, l := range problems.Levels {
				for _, temp := range []float64{0.1, 0.7, 1.0} {
					for idx := 0; idx < 2; idx++ {
						base := int64(p.Number*1000 + int(l)*10 + idx)
						a, okA := prepared.Complete(k, p, l, temp, idx, base)
						b, okB := lazy.Complete(k, p, l, temp, idx, base)
						if a != b || okA != okB {
							t.Fatalf("%s problem %d %s t=%.1f sample %d: prepared %+v (%v), lazy %+v (%v)",
								k, p.Number, l, temp, idx, a, okA, b, okB)
						}
					}
				}
			}
		}
	}
}
