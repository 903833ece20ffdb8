package bpe

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// naiveMerges is the pre-optimization Train loop: recount every adjacent
// pair from scratch each iteration. Kept here as the reference the
// incremental pair accounting must reproduce merge-for-merge.
func naiveMerges(corpus []string, vocabSize int) []merge {
	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range strings.Fields(doc) {
			wordFreq[w]++
		}
	}
	type wordState struct {
		parts []string
		freq  int
	}
	var words []*wordState
	for w, f := range wordFreq {
		parts := make([]string, 0, len(w))
		for _, b := range []byte(w) {
			parts = append(parts, string(rune(b)))
		}
		words = append(words, &wordState{parts: parts, freq: f})
	}
	sort.Slice(words, func(i, j int) bool {
		return strings.Join(words[i].parts, "") < strings.Join(words[j].parts, "")
	})

	var merges []merge
	target := vocabSize - 256
	for len(merges) < target {
		counts := map[pairKey]int{}
		for _, ws := range words {
			for i := 0; i+1 < len(ws.parts); i++ {
				counts[pairKey{ws.parts[i], ws.parts[i+1]}] += ws.freq
			}
		}
		if len(counts) == 0 {
			break
		}
		best := pairKey{}
		bestCount := 0
		for k, c := range counts {
			if c > bestCount || (c == bestCount && lessPair(k, best)) {
				best, bestCount = k, c
			}
		}
		if bestCount < 2 {
			break
		}
		merges = append(merges, merge{left: best.left, right: best.right})
		for _, ws := range words {
			ws.parts = applyMerge(ws.parts, best)
		}
	}
	return merges
}

func randomDoc(rng *rand.Rand) string {
	vocabulary := []string{
		"module", "endmodule", "assign", "always", "posedge", "clk",
		"input", "output", "reg", "wire", "begin", "end", "if", "else",
		"q", "d", "reset", "<=", "=", "@", "(", ")", ";", "4'b0101",
	}
	var sb strings.Builder
	n := 20 + rng.Intn(60)
	for i := 0; i < n; i++ {
		sb.WriteString(vocabulary[rng.Intn(len(vocabulary))])
		sb.WriteByte(' ')
	}
	return sb.String()
}

// TestIncrementalMatchesNaive verifies the incremental pair accounting is
// an exact optimization: identical merge tables (order included) and
// identical encodings across corpora and vocab sizes.
func TestIncrementalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		var corpus []string
		for i := 0; i < 5+trial*5; i++ {
			corpus = append(corpus, randomDoc(rng))
		}
		vocab := 300 + 100*trial
		tok := Train(corpus, vocab)
		want := naiveMerges(corpus, vocab)
		if len(tok.merges) != len(want) {
			t.Fatalf("trial %d: %d merges, naive %d", trial, len(tok.merges), len(want))
		}
		for i := range want {
			if tok.merges[i] != want[i] {
				t.Fatalf("trial %d merge %d: %+v != naive %+v", trial, i, tok.merges[i], want[i])
			}
		}
		for _, doc := range corpus[:2] {
			ids := tok.Encode(doc)
			if tok.Decode("", ids, "") != doc {
				t.Fatalf("trial %d: round-trip broken", trial)
			}
		}
	}
}

// TestIncrementalDegenerateCorpora covers the loop's exit conditions.
func TestIncrementalDegenerateCorpora(t *testing.T) {
	if tok := Train(nil, 512); tok.NumMerges() != 0 {
		t.Error("empty corpus should learn no merges")
	}
	// single-character words: no adjacent pairs at all
	if tok := Train([]string{"a b c d"}, 512); tok.NumMerges() != 0 {
		t.Error("pairless corpus should learn no merges")
	}
	// every pair unique: bestCount < 2 stops immediately
	if tok := Train([]string{"ab"}, 512); tok.NumMerges() != 0 {
		t.Error("frequency-1 pairs are unproductive")
	}
}
