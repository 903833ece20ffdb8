package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/problems"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

func testFamily(t *testing.T) *Family {
	t.Helper()
	return NewFamily(Config{Seed: 11, CorpusFiles: 80})
}

func TestCatalogShape(t *testing.T) {
	if len(IDs) != 6 {
		t.Fatalf("model count = %d", len(IDs))
	}
	for _, id := range IDs {
		s := Lookup(id)
		if s == nil {
			t.Fatalf("missing spec for %s", id)
		}
		if s.MaxTokens == 0 || s.NgramOrder == 0 {
			t.Errorf("%s: incomplete spec", id)
		}
	}
	if Lookup(Codex).HasFineTuned {
		t.Error("codex should not have a fine-tuned variant")
	}
	if Lookup(J1Large7B).MaxTokens != 256 {
		t.Error("J1 max tokens should be 256")
	}
}

func TestPriorsMatchPaperTables(t *testing.T) {
	// spot checks against Tables III and IV
	if got := CompilePrior(CodeGen16B, FineTuned, problems.Basic); got != 0.942 {
		t.Errorf("16B FT basic compile = %v", got)
	}
	if got := CompilePrior(Megatron355M, Pretrained, problems.Advanced); got != 0 {
		t.Errorf("megatron PT advanced compile = %v", got)
	}
	if got := FunctionalPrior(CodeGen6B, FineTuned, problems.Basic, problems.LevelLow); got != 1.0 {
		t.Errorf("6B FT basic L = %v", got)
	}
	if got := FunctionalPrior(Codex, Pretrained, problems.Advanced, problems.LevelHigh); got != 0.344 {
		t.Errorf("codex advanced H = %v", got)
	}
	if got := FunctionalPrior(Codex, FineTuned, problems.Basic, problems.LevelLow); got != 0 {
		t.Errorf("codex FT should have no prior, got %v", got)
	}
}

func TestProblemWeightsPreserveClassMeans(t *testing.T) {
	for _, d := range problems.Difficulties {
		ps := problems.ByDifficulty(d)
		sum := 0.0
		for _, p := range ps {
			sum += problemWeight(p.Number)
		}
		if diff := math.Abs(sum/float64(len(ps)) - 1); diff > 0.01 {
			t.Errorf("difficulty %s weight mean off by %f", d, diff)
		}
	}
}

func TestTempFactorShape(t *testing.T) {
	if tempFactor(0.1, 2) != 1 {
		t.Error("best temperature should be unscaled")
	}
	if !(tempFactor(0.5, 2) > tempFactor(1.0, 2)) {
		t.Error("decay not monotone")
	}
	if tempFactor(0.05, 2) != 1 {
		t.Error("below best temperature should clamp")
	}
}

func TestGeneratorAvailability(t *testing.T) {
	f := testFamily(t)
	if _, ok := f.Generator(Codex, FineTuned); ok {
		t.Error("codex FT generator should not exist")
	}
	if _, ok := f.Generator(CodeGen16B, FineTuned); !ok {
		t.Error("16B FT generator missing")
	}
	if _, ok := f.Generator(ID("nope"), Pretrained); ok {
		t.Error("unknown model accepted")
	}
}

func TestBankPoolsVerified(t *testing.T) {
	f := testFamily(t)
	p := problems.ByNumber(6) // counter
	rng := rand.New(rand.NewSource(1))
	c := f.Bank().Correct(p, rng)
	if verdictOf(p, c) != verdictPass {
		t.Fatal("correct pool entry does not pass")
	}
	if nm, ok := f.Bank().NearMiss(p, rng); ok {
		if v := verdictOf(p, nm); v != verdictFail {
			t.Fatalf("near-miss verdict = %v", v)
		}
	} else {
		t.Fatal("counter should have near-miss mutants")
	}
	b := f.Bank().Broken(p, rng)
	if verdictOf(p, b) == verdictPass {
		t.Fatal("broken pool entry passes")
	}
}

func TestMechanismRatesFollowPriors(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(CodeGen16B, FineTuned)
	p := problems.ByNumber(2) // basic
	rng := rand.New(rand.NewSource(42))
	n := 400
	correct := 0
	for i := 0; i < n; i++ {
		s := g.Complete(p, problems.LevelLow, 0.1, rng)
		if s.Mechanism == "correct" {
			correct++
		}
	}
	want := FunctionalPrior(CodeGen16B, FineTuned, problems.Basic, problems.LevelLow)
	got := float64(correct) / float64(n)
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("correct rate %f, prior %f", got, want)
	}
}

func TestTemperatureDegradesQuality(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(CodeGen6B, FineTuned)
	p := problems.ByNumber(1)
	count := func(temp float64) int {
		rng := rand.New(rand.NewSource(7))
		c := 0
		for i := 0; i < 200; i++ {
			if g.Complete(p, problems.LevelLow, temp, rng).Mechanism == "correct" {
				c++
			}
		}
		return c
	}
	if !(count(0.1) > count(1.0)) {
		t.Fatal("high temperature should reduce correct completions")
	}
}

func TestPretrainedBabbleDoesNotCompile(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(Megatron355M, Pretrained)
	p := problems.ByNumber(3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		s := g.Complete(p, problems.LevelMedium, 0.5, rng)
		src := p.CompleteWith(problems.LevelMedium, s.Completion)
		if fl, err := vlog.Parse(src); err == nil {
			if elab.CompileCheck(fl) == nil {
				t.Fatalf("pre-trained Megatron produced compiling code:\n%s", s.Completion)
			}
		}
	}
}

func TestLatencyNearTableIV(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(J1Large7B, Pretrained)
	rng := rand.New(rand.NewSource(3))
	p := problems.ByNumber(1)
	total := 0.0
	n := 50
	for i := 0; i < n; i++ {
		total += g.Complete(p, problems.LevelLow, 0.1, rng).Latency
	}
	mean := total / float64(n)
	if math.Abs(mean-7.146) > 0.7 {
		t.Fatalf("mean latency %f, want about 7.146", mean)
	}
}

func TestDeterminismAcrossFamilies(t *testing.T) {
	f1 := NewFamily(Config{Seed: 5, CorpusFiles: 50})
	f2 := NewFamily(Config{Seed: 5, CorpusFiles: 50})
	g1, _ := f1.Generator(CodeGen2B, FineTuned)
	g2, _ := f2.Generator(CodeGen2B, FineTuned)
	p := problems.ByNumber(4)
	s1 := g1.CompleteN(p, problems.LevelHigh, 0.3, 5, 1)
	s2 := g2.CompleteN(p, problems.LevelHigh, 0.3, 5, 1)
	for i := range s1 {
		if s1[i].Completion != s2[i].Completion || s1[i].Mechanism != s2[i].Mechanism {
			t.Fatal("generation not deterministic across equal-seed families")
		}
	}
}

func TestBooksCorpusBoost(t *testing.T) {
	base := Config{Seed: 3, CorpusFiles: 50}
	fg := NewFamily(base)
	withBooks := base
	withBooks.Corpus = GitHubPlusBooks
	fb := NewFamily(withBooks)
	gg, _ := fg.Generator(CodeGen16B, FineTuned)
	gb, _ := fb.Generator(CodeGen16B, FineTuned)
	p := problems.ByNumber(14)
	pfG, _ := gg.successProbs(p, problems.LevelLow, 0.1)
	pfB, _ := gb.successProbs(p, problems.LevelLow, 0.1)
	if !(pfB > pfG) {
		t.Fatalf("books corpus should raise functional probability: %f vs %f", pfB, pfG)
	}
	if math.Abs(pfB/pfG-1.014) > 1e-9 {
		t.Fatalf("books gain = %f", pfB/pfG)
	}
}

func TestZeroPriorNeverCorrect(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(Megatron355M, FineTuned)
	p := problems.ByNumber(15) // advanced; Megatron FT advanced prior is 0
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		if s := g.Complete(p, problems.LevelHigh, 0.1, rng); s.Mechanism == "correct" {
			t.Fatal("zero-prior cell produced a correct completion")
		}
	}
}
