// Package gen is the pluggable generation-backend layer of the
// evaluation stack. The paper benchmarks one fixed Verilog evaluation
// pipeline against many completion sources (Megatron, CodeGen, J1,
// Codex); this package makes the source a first-class interface so the
// eval engine, harness, and tools speak to *any* generator — the
// simulated n-gram family, recorded transcripts of real LLMs, or
// adversarial mutants — through one contract.
//
// A Backend is addressed by Key (model, variant) and produces one Sample
// per (problem, level, temperature, sampleIdx, baseSeed) coordinate. The
// determinism contract is the same one the parallel evaluation engine is
// built on (DESIGN.md, "Determinism under parallelism"): a sample is a
// pure function of its coordinates, so any worker may produce any sample
// in any order and the sweep output is byte-identical.
//
// This package holds the contract and the backends themselves; the
// table that names them for vgen-eval's and vgen-serve's -backend flag,
// and builds the one a caller selects, is core's.
package gen

import "repro/internal/problems"

// Key names one generation line — (model, variant) — within a backend.
// The fields are plain strings so third-party backends need no dependency
// on the simulated-family catalog; the family backend maps them onto its
// model.ID / model.Variant pairs.
type Key struct {
	Model   string
	Variant string // VariantPT or VariantFT
}

// Variant strings used in Key.Variant. They match model.Variant.String().
const (
	VariantPT = "PT"
	VariantFT = "FT"
)

func (k Key) String() string { return k.Model + "/" + k.Variant }

// Sample is one produced completion with its simulated inference latency.
type Sample struct {
	Completion string
	Mechanism  string // how the completion was produced ("correct", "babble", ...)
	Latency    float64
}

// Backend is a source of completions. Implementations must be safe for
// concurrent use: the evaluation engine calls Complete from every worker
// of its pool.
type Backend interface {
	// Complete produces sample sampleIdx of the evaluation cell identified
	// by (key, problem, level, temperature). baseSeed is the cell's hashed
	// base seed (eval.Runner derives it from its own seed and the cell
	// coordinates); the sample must be a pure function of the arguments —
	// same arguments, byte-identical Sample — so parallel and serial
	// sweeps agree. ok is false when the backend has no line for key, in
	// which case the engine scores the cell as empty.
	Complete(key Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (s Sample, ok bool)

	// Prepare returns independent set-up tasks for a batch that samples
	// keys over problems ps: work Complete would otherwise run lazily on
	// first use, such as training a model or building a problem's pools.
	// The engine runs each task once on its worker pool before the batch's
	// samples, concurrently and in any order. A task must not change any
	// sample, only when its cost is paid; Complete must stay correct
	// without it. Backends with nothing to set up return nil.
	Prepare(keys []Key, ps []*problems.Problem) []func()

	// Variants lists the keys the backend is known to serve, for UIs and
	// conformance checks. Backends that synthesize completions for any key
	// (e.g. the mutant backend) list their canonical line-up.
	Variants() []Key

	// Describe returns a short human-readable description. It is also
	// the sweep's backend tag (core.Framework.backendTag): shard plans and
	// results carry it in their metadata and the result store keys cells
	// by it, so two backends sharing a seed never merge or share cells;
	// keep it stable for the backend's lifetime.
	Describe() string
}
