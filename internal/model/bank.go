package model

import (
	"math/rand"
	"strings"
	"sync"

	"repro/internal/mutate"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// VariantBank holds, per problem, pools of verified completions:
//
//   - correct: completions that compile and pass the problem's test bench
//     (the reference body plus harmless restyles);
//   - nearMiss: completions that compile but fail the test bench
//     (AST mutants, the paper's characteristic near-miss failures);
//   - broken: completions that fail to compile (truncations and corrupted
//     bodies; the n-gram babble path adds more at sampling time).
//
// Verification runs the real pipeline once at bank construction, so a
// sampled "correct" completion is guaranteed to land in the measured
// pass bucket for the right reason: it genuinely passes simulation.
// Locking: the bank-wide mutex guards only the slot map; each problem's
// pools build under a per-problem sync.Once, so two workers evaluating
// different problems never serialize on each other's (expensive, real
// compile+simulate) bank construction.
type VariantBank struct {
	mu    sync.Mutex
	slots map[int]*bankSlot
	seed  int64
}

type bankSlot struct {
	once sync.Once
	e    *bankEntry
}

type bankEntry struct {
	correct  []string
	nearMiss []string
	broken   []string
}

// NewVariantBank creates an empty bank; pools build lazily per problem.
func NewVariantBank(seed int64) *VariantBank {
	return &VariantBank{slots: map[int]*bankSlot{}, seed: seed}
}

func (b *VariantBank) entry(p *problems.Problem) *bankEntry {
	b.mu.Lock()
	s, ok := b.slots[p.Number]
	if !ok {
		s = &bankSlot{}
		b.slots[p.Number] = s
	}
	b.mu.Unlock()
	s.once.Do(func() { s.e = buildEntry(p, b.seed) })
	return s.e
}

// Correct draws a verified-passing completion.
func (b *VariantBank) Correct(p *problems.Problem, rng *rand.Rand) string {
	e := b.entry(p)
	return e.correct[rng.Intn(len(e.correct))]
}

// NearMiss draws a compiles-but-fails completion; ok is false when the
// mutation engine found none for this problem.
func (b *VariantBank) NearMiss(p *problems.Problem, rng *rand.Rand) (string, bool) {
	e := b.entry(p)
	if len(e.nearMiss) == 0 {
		return "", false
	}
	return e.nearMiss[rng.Intn(len(e.nearMiss))], true
}

// Broken draws a non-compiling completion.
func (b *VariantBank) Broken(p *problems.Problem, rng *rand.Rand) string {
	e := b.entry(p)
	return e.broken[rng.Intn(len(e.broken))]
}

// buildEntry constructs and verifies the pools for one problem. The
// problem's testbench is parsed once up front and composed with each
// candidate's AST, mirroring eval's single-parse pipeline.
func buildEntry(p *problems.Problem, seed int64) *bankEntry {
	rng := rand.New(rand.NewSource(seed + int64(p.Number)*7919))
	tb, tbErr := vlog.Parse(p.Testbench)
	check := func(completion string) verdict {
		return verdictWith(p, completion, tb, tbErr)
	}
	e := &bankEntry{}

	// --- correct pool: reference body restyles, verified to pass
	candidates := []string{
		p.RefBody,
		"  // implementation\n" + p.RefBody,
		reprintBody(p),
	}
	for _, c := range candidates {
		if c == "" {
			continue
		}
		if check(c) == verdictPass {
			e.correct = append(e.correct, c)
		}
	}
	if len(e.correct) == 0 {
		// the reference itself must pass; enforced by problems tests
		e.correct = append(e.correct, p.RefBody)
	}

	// --- near-miss pool: mutants that compile and fail
	ref := p.ReferenceSource()
	for tries := 0; tries < 80 && len(e.nearMiss) < 10; tries++ {
		res, err := mutate.Apply(ref, rng)
		if err != nil {
			break
		}
		body, ok := BehaviouralTail(res.Source)
		if !ok {
			continue
		}
		switch check(body) {
		case verdictFail:
			e.nearMiss = append(e.nearMiss, body)
		}
	}

	// --- broken pool: truncations and corruptions, verified to not compile
	base := p.RefBody
	cuts := []int{len(base) / 3, len(base) / 2, 2 * len(base) / 3}
	for _, cut := range cuts {
		if cut < 1 || cut >= len(base) {
			continue
		}
		body := base[:cut]
		if check(body) == verdictNoCompile {
			e.broken = append(e.broken, body)
		}
	}
	corrupted := strings.Replace(base, "endmodule", "endmodul", 1)
	if check(corrupted) == verdictNoCompile {
		e.broken = append(e.broken, corrupted)
	}
	undeclared := "  assign undeclared_net_xyz = some_other_net + 1;\nendmodule\n"
	if check(undeclared) == verdictNoCompile {
		e.broken = append(e.broken, undeclared)
	}
	if len(e.broken) == 0 {
		e.broken = append(e.broken, "  begin begin begin\n")
	}
	return e
}

type verdict int

const (
	verdictNoCompile verdict = iota
	verdictFail
	verdictPass
)

// verdictWith runs the real pipeline on prompt(L)+completion, composing
// the candidate's AST with the pre-parsed testbench so the bench text is
// parsed once per problem, not once per candidate.
func verdictWith(p *problems.Problem, completion string, tb *vlog.SourceFile, tbErr error) verdict {
	src := p.CompleteWith(problems.LevelLow, completion)
	f, err := vlog.Parse(src)
	if err != nil {
		return verdictNoCompile
	}
	if elab.CompileCheck(f) != nil {
		return verdictNoCompile
	}
	if tbErr != nil {
		return verdictNoCompile
	}
	d, err := elab.Elaborate(vlog.Compose(f, tb), "tb", elab.Options{})
	if err != nil {
		return verdictNoCompile
	}
	res, err := sim.New(d, sim.Options{}).Run()
	if err != nil {
		return verdictFail
	}
	if problems.PassVerdict(res.Output) {
		return verdictPass
	}
	return verdictFail
}

// reprintBody reparses the reference and prints its behavioural items in
// canonical style — a formatting-only restyle.
func reprintBody(p *problems.Problem) string {
	body, ok := BehaviouralTail(p.ReferenceSource())
	if !ok {
		return ""
	}
	return body
}

// BehaviouralTail extracts the behavioural items (always/initial/assign)
// of a module's printed form as a completion: the prompt already carries
// the header and declarations, so the completion is the tail plus the
// closing endmodule. ok is false for text that does not parse, holds no
// module, or has no behavioural item.
func BehaviouralTail(src string) (string, bool) {
	f, err := vlog.Parse(src)
	if err != nil || len(f.Modules) == 0 {
		return "", false
	}
	var items []vlog.Item
	for _, it := range f.Modules[0].Items {
		switch it.(type) {
		case *vlog.AlwaysBlock, *vlog.InitialBlock, *vlog.ContAssign:
			items = append(items, it)
		}
	}
	if len(items) == 0 {
		return "", false
	}
	return vlog.PrintItems(items) + "endmodule\n", true
}
