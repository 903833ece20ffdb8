package model

import (
	"math/rand"
	"strings"
	"sync"

	"repro/internal/mutate"
	"repro/internal/problems"
	"repro/internal/verdict"
	"repro/internal/vlog"
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

// buildEntry constructs and verifies the pools for one problem. Each
// candidate is judged at LevelLow by verdict.Evaluate, the pipeline every
// sweep verdict runs through, so its verdicts land in the shared verdict
// memo.
func buildEntry(p *problems.Problem, seed int64) *bankEntry {
	rng := rand.New(rand.NewSource(seed + int64(p.Number)*7919))
	check := func(completion string) verdict.Outcome {
		return verdict.Evaluate(p, problems.LevelLow, completion)
	}
	e := &bankEntry{}

	// --- correct pool: reference body restyles (the last reprinted in
	// canonical style), verified to pass
	candidates := []string{p.RefBody, "  // implementation\n" + p.RefBody}
	if body, ok := BehaviouralTail(p.ReferenceSource()); ok {
		candidates = append(candidates, body)
	}
	for _, c := range candidates {
		if check(c).Passes {
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
		if o := check(body); o.Simulated && !o.Passes {
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
		if !check(body).Simulated {
			e.broken = append(e.broken, body)
		}
	}
	corrupted := strings.Replace(base, "endmodule", "endmodul", 1)
	if !check(corrupted).Simulated {
		e.broken = append(e.broken, corrupted)
	}
	undeclared := "  assign undeclared_net_xyz = some_other_net + 1;\nendmodule\n"
	if !check(undeclared).Simulated {
		e.broken = append(e.broken, undeclared)
	}
	if len(e.broken) == 0 {
		e.broken = append(e.broken, "  begin begin begin\n")
	}
	return e
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
