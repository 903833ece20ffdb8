package model

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/problems"
)

// TestFineTuningLowersVerilogPerplexity validates the substitution story:
// "fine-tuning" really is training the generative component on the curated
// Verilog corpus, and it measurably improves the model's fit to held-out
// Verilog (lower perplexity) versus the pre-trained natural-text variant.
func TestFineTuningLowersVerilogPerplexity(t *testing.T) {
	f := testFamily(t)
	ft := f.lm(4, FineTuned)
	pt := f.lm(4, Pretrained)

	// held-out Verilog: fresh archetype instances not in the corpus seed
	rng := rand.New(rand.NewSource(987))
	var ftSum, ptSum float64
	n := 10
	for i := 0; i < n; i++ {
		doc := corpus.NormalizeForLM(corpus.GenerateModule(rng))
		toks := f.tok.Encode(doc)
		ftSum += ft.Perplexity(toks)
		ptSum += pt.Perplexity(toks)
	}
	if !(ftSum/float64(n) < ptSum/float64(n)) {
		t.Fatalf("fine-tuned perplexity %.1f should beat pre-trained %.1f",
			ftSum/float64(n), ptSum/float64(n))
	}
}

func TestBabbleMechanismProducesText(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(CodeGen16B, FineTuned)
	p := problems.ByNumber(7) // zero functional weight: never "correct"
	rng := rand.New(rand.NewSource(31))
	sawBabble := false
	for i := 0; i < 60 && !sawBabble; i++ {
		s := g.Complete(p, problems.LevelLow, 1.0, rng)
		if s.Mechanism == "babble" {
			sawBabble = true
			if strings.TrimSpace(s.Completion) == "" {
				t.Fatal("babble produced empty completion")
			}
		}
	}
	if !sawBabble {
		t.Fatal("babble mechanism never selected at t=1.0")
	}
}

func TestBrokenPoolNeverCompiles(t *testing.T) {
	f := testFamily(t)
	rng := rand.New(rand.NewSource(8))
	for _, num := range []int{1, 6, 15} {
		p := problems.ByNumber(num)
		for i := 0; i < 5; i++ {
			b := f.bank.Broken(p, rng)
			if unshared(p, b).Passes {
				t.Fatalf("problem %d broken pool entry passes:\n%s", num, b)
			}
		}
	}
}

func TestCompleteNCount(t *testing.T) {
	f := testFamily(t)
	g, _ := f.Generator(CodeGen2B, Pretrained)
	p := problems.ByNumber(3)
	out := g.CompleteN(p, problems.LevelHigh, 0.3, 25, 1)
	if len(out) != 25 {
		t.Fatalf("got %d samples", len(out))
	}
}

func TestCorpusKindString(t *testing.T) {
	if GitHubOnly.String() != "GitHub" || GitHubPlusBooks.String() != "GitHub+Books" {
		t.Fatal("corpus kind strings wrong")
	}
	if Pretrained.String() != "PT" || FineTuned.String() != "FT" {
		t.Fatal("variant strings wrong")
	}
}
