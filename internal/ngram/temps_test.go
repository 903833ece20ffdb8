package ngram_test

import (
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/ngram"
)

// TestPaperTempsMatchEval pins the copy of the paper's sweep temperatures
// the search test draws at to eval.Temperatures.
func TestPaperTempsMatchEval(t *testing.T) {
	if !slices.Equal(ngram.PaperTemps, eval.Temperatures) {
		t.Fatalf("ngram tests draw at %v, the sweep runs %v", ngram.PaperTemps, eval.Temperatures)
	}
}
