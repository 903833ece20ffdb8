package bpe

import (
	"math/rand"
	"testing"
)

// encodeWordReference is the pre-optimization string-slice word encoder:
// rebuild the part list per merge, one occurrence per iteration. Kept as
// the reference the id-based in-place loop must reproduce token-for-token.
func (t *Tokenizer) encodeWordReference(w string) []int {
	if w == "" {
		return nil
	}
	parts := make([]string, 0, len(w))
	for _, b := range []byte(w) {
		parts = append(parts, string(rune(b)))
	}
	for {
		bestRank := -1
		bestAt := -1
		for i := 0; i+1 < len(parts); i++ {
			if r, ok := t.rank[pairKey{parts[i], parts[i+1]}]; ok {
				if bestRank < 0 || r < bestRank {
					bestRank, bestAt = r, i
				}
			}
		}
		if bestAt < 0 {
			break
		}
		parts = append(parts[:bestAt], append([]string{parts[bestAt] + parts[bestAt+1]}, parts[bestAt+2:]...)...)
	}
	ids := make([]int, len(parts))
	for i, p := range parts {
		ids[i] = t.vocab[p]
	}
	return ids
}

func (t *Tokenizer) encodeReference(text string) []int {
	var ids []int
	i := 0
	for i < len(text) {
		j := i
		for j < len(text) && !isSpace(text[j]) {
			j++
		}
		if j > i {
			ids = append(ids, t.encodeWordReference(text[i:j])...)
			i = j
		}
		for i < len(text) && isSpace(text[i]) {
			ids = append(ids, int(text[i]))
			i++
		}
	}
	return ids
}

var equivalenceCorpus = []string{
	"module counter ( input clk , input reset , output reg q ) ;",
	"always @ ( posedge clk ) begin q <= q + 1 ; end endmodule",
	"assign y = a & b ; assign z = a | b ;",
	"aaab aaab aaab ab ab aaaa aaaaaa",
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEncodeIntoMatchesReference pins the id-based encode path against
// the string-slice reference on trained and untrained tokenizers, and
// checks EncodeInto's append contract.
func TestEncodeIntoMatchesReference(t *testing.T) {
	for _, vocab := range []int{256, 280, 400} {
		tok := Train(equivalenceCorpus, vocab)
		for _, doc := range append(equivalenceCorpus,
			"", " ", "unseen_word never trained \t on", "aaabaaab aaab") {
			want := tok.encodeReference(doc)
			if got := tok.Encode(doc); !equalIDs(got, want) {
				t.Fatalf("vocab %d: Encode(%q) = %v, reference %v", vocab, doc, got, want)
			}
			dst := []int{7, 8, 9}
			out := tok.EncodeInto(dst, doc)
			if !equalIDs(out[:3], []int{7, 8, 9}) || !equalIDs(out[3:], want) {
				t.Fatalf("vocab %d: EncodeInto append broke: %v", vocab, out)
			}
		}
	}
}

// TestEncodeIntoReuseStable checks the buffer-reuse pattern the hot paths
// use: encoding into buf[:0] repeatedly yields stable results.
func TestEncodeIntoReuseStable(t *testing.T) {
	tok := Train(equivalenceCorpus, 320)
	var buf []int
	first := append([]int(nil), tok.Encode(equivalenceCorpus[1])...)
	for i := 0; i < 10; i++ {
		buf = tok.EncodeInto(buf[:0], equivalenceCorpus[1])
		if !equalIDs(buf, first) {
			t.Fatalf("iteration %d drifted: %v vs %v", i, buf, first)
		}
	}
}

// FuzzEncodeIntoEquivalence fuzzes arbitrary byte strings through both
// encode implementations and requires identical id streams.
func FuzzEncodeIntoEquivalence(f *testing.F) {
	tok := Train(equivalenceCorpus, 380)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(equivalenceCorpus[i%len(equivalenceCorpus)][rng.Intn(10):])
	}
	f.Add("a\xff\xfe binary \x00 soup")
	f.Add("   \t\r\n  ")
	f.Fuzz(func(t *testing.T, text string) {
		got := tok.Encode(text)
		want := tok.encodeReference(text)
		if !equalIDs(got, want) {
			t.Fatalf("Encode(%q) = %v, reference %v", text, got, want)
		}
		var buf []int
		if into := tok.EncodeInto(buf, text); !equalIDs(into, want) {
			t.Fatalf("EncodeInto(%q) = %v, reference %v", text, into, want)
		}
	})
}
