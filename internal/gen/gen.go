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
// Backends register under a short name (Register/New/Names), which is
// how the harness, core.Framework, and vgen-eval's -backend flag select
// them.
package gen

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/problems"
)

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

// Factory builds a backend from construction options. Each backend reads
// only the fields it needs and must return an error (not panic) on
// unusable options.
type Factory func(o Options) (Backend, error)

type registration struct {
	factory Factory
	desc    string
}

var registry = struct {
	sync.RWMutex
	m map[string]registration
}{m: map[string]registration{}}

// Register adds a backend factory under a name, with a short static
// description shown by registry listings (`vgen-eval -backend list`). The
// description stands in for Describe() before any instance exists — a
// replay backend, say, cannot be constructed just to be listed.
// Registering an empty name or a duplicate panics: registration happens
// in init functions, where a collision is a programming error.
func Register(name, desc string, f Factory) {
	if name == "" || f == nil {
		panic("gen: Register with empty name or nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("gen: backend %q registered twice", name))
	}
	registry.m[name] = registration{factory: f, desc: desc}
}

// New constructs the backend registered under name.
func New(name string, o Options) (Backend, error) {
	registry.RLock()
	r, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("gen: unknown backend %q (have %v)", name, Names())
	}
	return r.factory(o)
}

// Names lists the registered backend names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Info describes one registered backend for listings.
type Info struct {
	Name string
	Desc string
}

// List returns every registered backend with its description, sorted by
// name — the deterministic feed for `-backend list` style UIs (map
// iteration order never leaks through).
func List() []Info {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Info, 0, len(registry.m))
	for n, r := range registry.m {
		out = append(out, Info{Name: n, Desc: r.desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
