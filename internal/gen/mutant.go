package gen

import (
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/problems"
)

// Mutant generates controlled adversarial completions straight from the
// mutation engine: mostly AST near-misses of the reference solution (the
// paper's characteristic compiles-but-fails failures), a thin stream of
// verbatim references, and truncated bodies that must not compile. It
// needs no corpus, no tokenizer, and no trained LM, so it builds
// instantly — the robustness probe for the verdict pipeline: a sweep over
// this backend exercises every verdict bucket with known ground truth at
// full engine speed.
//
// The backend serves any key (the mix is keyed into baseSeed, which
// already hashes model and variant), and ignores temperature: mutation
// pressure, not sampling entropy, is the knob here.
type Mutant struct{}

// NewMutant builds the mutant backend.
func NewMutant() *Mutant { return &Mutant{} }

// Complete draws one adversarial completion. Purely a function of
// (problem, baseSeed, sampleIdx): the rng stream is the engine's own
// splitmix derivation through model.SampleRand, the same per-sample
// constructor the family backend uses, so the backend honors the
// cross-worker determinism contract by construction.
func (m *Mutant) Complete(key Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (Sample, bool) {
	rng := model.SampleRand(model.SampleSeed(baseSeed, sampleIdx))
	lat := 0.5 * (0.9 + 0.2*rng.Float64())
	u := rng.Float64()
	if u < 0.10 {
		return Sample{Completion: p.RefBody, Mechanism: "correct", Latency: lat}, true
	}
	if u < 0.80 {
		if res, err := mutate.Apply(p.ReferenceSource(), rng); err == nil {
			if body, ok := model.BehaviouralTail(res.Source); ok {
				return Sample{Completion: body, Mechanism: "mutant:" + res.Operator, Latency: lat}, true
			}
		}
		// no mutation site / no behavioural tail: fall through to a broken
		// completion so the sample cannot spuriously pass
	}
	body := p.RefBody
	cut := len(body) / 3
	if cut < 1 {
		cut = 1
	}
	cut += rng.Intn(cut + 1) // cut somewhere in the middle third onward
	if cut >= len(body) {
		cut = len(body) - 1
	}
	return Sample{Completion: body[:cut], Mechanism: "truncation", Latency: lat}, true
}

// Prepare returns nil: the mutant backend has nothing to build.
func (m *Mutant) Prepare([]Key, []*problems.Problem) []func() { return nil }

// Variants lists the catalog line-up; any other key is served too.
func (m *Mutant) Variants() []Key { return catalogKeys() }

// Describe identifies the backend.
func (m *Mutant) Describe() string { return "mutant: AST near-miss / truncation generator" }
