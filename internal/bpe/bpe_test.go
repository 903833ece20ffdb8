package bpe

import (
	"math/rand"
	"slices"
	"testing"
)

var tinyCorpus = []string{
	"module counter ( input clk , input reset , output reg q ) ;",
	"module counter2 ( input clk , input reset , output reg q ) ;",
	"always @ ( posedge clk ) begin q <= q + 1 ; end endmodule",
	"always @ ( posedge clk ) begin if ( reset ) q <= 0 ; end endmodule",
	"assign y = a & b ; assign z = a | b ;",
}

func TestTrainLearnsMerges(t *testing.T) {
	tok := Train(tinyCorpus, 300)
	if tok.NumMerges() == 0 {
		t.Fatal("no merges learned")
	}
	if tok.VocabSize() <= 256 {
		t.Fatal("vocabulary did not grow")
	}
	if tok.VocabSize() > 300 {
		t.Fatalf("vocab exceeded limit: %d", tok.VocabSize())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tok := Train(tinyCorpus, 320)
	for _, doc := range tinyCorpus {
		ids := tok.Encode(doc)
		if got := tok.Decode(ids); got != doc {
			t.Errorf("round trip failed:\n in=%q\nout=%q", doc, got)
		}
	}
	// text with unseen words still round-trips (byte fallback)
	s := "module never_seen_before (input weird);"
	if got := tok.Decode(tok.Encode(s)); got != s {
		t.Errorf("fallback round trip failed: %q", got)
	}
}

func TestCompressionOnDomainText(t *testing.T) {
	tok := Train(tinyCorpus, 400)
	text := "always @ ( posedge clk ) begin q <= q + 1 ; end"
	ids := tok.Encode(text)
	if len(ids) >= len(text) {
		t.Errorf("no compression: %d tokens for %d bytes", len(ids), len(text))
	}
}

func TestDeterministicTraining(t *testing.T) {
	a := Train(tinyCorpus, 300)
	b := Train(tinyCorpus, 300)
	if !slices.Equal(a.merges, b.merges) {
		t.Fatal("training is not deterministic")
	}
}

func TestEncodeWordGreedyOrder(t *testing.T) {
	tok := Train([]string{"aaab aaab aaab ab ab"}, 260)
	ids := tok.Encode("aaab")
	if got := tok.Decode(ids); got != "aaab" {
		t.Fatalf("decode = %q", got)
	}
	// merged tokens should reduce the id count below byte length
	if len(ids) >= 4 {
		t.Fatalf("no merges applied to aaab: %d ids", len(ids))
	}
}

func TestTokenLookup(t *testing.T) {
	tok := Train(tinyCorpus, 280)
	if _, ok := tok.Token(-1); ok {
		t.Error("negative id accepted")
	}
	if _, ok := tok.Token(1 << 20); ok {
		t.Error("huge id accepted")
	}
	if s, ok := tok.Token(65); !ok || s != "A" {
		t.Errorf("Token(65) = %q, %v", s, ok)
	}
}

// TestEncodeMatchesReferenceOnRandomCorpora trains tokenizers on
// randomized corpora (heavy repetition, tiny alphabets — the regime
// where merge interactions are densest) and checks the collapsed
// pair-merge loop in Encode against the one-occurrence-per-iteration
// reference on random probe words. Folded in from the PR 3 review
// sweep: the fixed-corpus and fuzz tests above probe many *texts* but
// only a handful of trained *tokenizers*; this drives the equivalence
// across many merge tables.
func TestEncodeMatchesReferenceOnRandomCorpora(t *testing.T) {
	letters := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(1))
	randWord := func() string {
		n := 1 + rng.Intn(6)
		w := ""
		for i := 0; i < n; i++ {
			w += letters[rng.Intn(len(letters))]
		}
		return w
	}
	for trial := 0; trial < 400; trial++ {
		doc := ""
		for i, nw := 0, 2+rng.Intn(8); i < nw; i++ {
			rep := 1 + rng.Intn(4)
			w := randWord()
			for r := 0; r < rep; r++ {
				doc += w + " "
			}
		}
		tok := Train([]string{doc}, 256+2+rng.Intn(12))
		for probe := 0; probe < 12; probe++ {
			w := randWord() + randWord()
			got := tok.Encode(w)
			want := tok.encodeReference(w)
			if !equalIDs(got, want) {
				t.Fatalf("trial %d: corpus=%q merges=%d word=%q got=%v want=%v",
					trial, doc, tok.NumMerges(), w, got, want)
			}
		}
	}
}
