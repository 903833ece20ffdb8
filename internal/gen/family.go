package gen

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/problems"
)

func init() {
	Register("family", "simulated n-gram model line-up (the paper's Table I rows)",
		func(o Options) (Backend, error) {
			return NewFamilyBackend(model.NewFamily(o.Family)), nil
		})
}

// FamilyBackend adapts the simulated n-gram model line-up (model.Family)
// to the Backend interface. It is a thin shim: sampling goes through the
// exact Generator.CompleteAt path the pre-backend evaluation engine
// called, so sweeps through this backend are byte-identical to the old
// hardwired wiring (pinned by eval's differential test).
type FamilyBackend struct {
	fam *model.Family
}

// NewFamilyBackend wraps an existing family.
func NewFamilyBackend(f *model.Family) *FamilyBackend { return &FamilyBackend{fam: f} }

// Family exposes the wrapped family for callers that need the substrate
// (tokenizer, variant bank, corpus statistics).
func (b *FamilyBackend) Family() *model.Family { return b.fam }

// Complete samples one completion from the keyed (model, variant)
// generator. ok is false for unknown models, unknown variant strings, and
// variants the paper does not evaluate (fine-tuned code-davinci-002).
func (b *FamilyBackend) Complete(key Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (Sample, bool) {
	g, ok := b.generator(key)
	if !ok {
		return Sample{}, false
	}
	s := g.CompleteAt(p, level, temperature, sampleIdx, baseSeed)
	return Sample{Completion: s.Completion, Mechanism: s.Mechanism, Latency: s.Latency}, true
}

func (b *FamilyBackend) generator(key Key) (*model.Generator, bool) {
	v, ok := ParseVariant(key.Variant)
	if !ok {
		return nil, false
	}
	return b.fam.Generator(model.ID(key.Model), v)
}

// Prepare returns the family's set-up tasks for keys over ps
// (model.Family.Prepare): one per distinct babble LM, fine-tuned first,
// and one per problem's variant-bank entry. Keys the family does not
// serve contribute nothing.
func (b *FamilyBackend) Prepare(keys []Key, ps []*problems.Problem) []func() {
	var gs []*model.Generator
	for _, k := range keys {
		if g, ok := b.generator(k); ok {
			gs = append(gs, g)
		}
	}
	return b.fam.Prepare(gs, ps)
}

// Variants lists the paper's 11 evaluated (model, variant) rows.
func (b *FamilyBackend) Variants() []Key { return catalogKeys() }

// Describe identifies the backend and its substrate configuration.
func (b *FamilyBackend) Describe() string {
	return fmt.Sprintf("family: simulated n-gram line-up (%d fine-tuning docs)", b.fam.CorpusDocs())
}

// ParseVariant maps a Key.Variant string onto the catalog's typed
// variant. It is the single home of the mapping — backends, examples,
// and tests that need typed query coordinates all go through it.
func ParseVariant(s string) (model.Variant, bool) {
	switch s {
	case VariantPT:
		return model.Pretrained, true
	case VariantFT:
		return model.FineTuned, true
	}
	return 0, false
}

// catalogKeys enumerates the catalog line-up in Table I order: every
// model pre-trained, plus fine-tuned where the paper evaluates it.
func catalogKeys() []Key {
	var out []Key
	for _, id := range model.IDs {
		out = append(out, Key{Model: string(id), Variant: VariantPT})
		if model.Lookup(id).HasFineTuned {
			out = append(out, Key{Model: string(id), Variant: VariantFT})
		}
	}
	return out
}
