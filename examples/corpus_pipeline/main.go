// Corpus pipeline walk-through (paper Section III-A): generate a synthetic
// GitHub snapshot, apply the module-pair and size filters, de-duplicate
// with MinHash, extract textbook windows, and train the BPE tokenizer —
// printing what each stage keeps and drops.
package main

import (
	"fmt"

	"repro/internal/bpe"
	"repro/internal/corpus"
)

func main() {
	fmt.Println("Training-corpus pipeline (Section III-A)")
	fmt.Println("========================================")

	raw := corpus.GenerateGitHub(corpus.GitHubOptions{Seed: 7})
	fmt.Printf("raw snapshot: %d files\n", len(raw))

	kept, st := corpus.Curate(raw)
	fmt.Printf("  module/endmodule filter dropped %d\n", st.DroppedNoPair)
	fmt.Printf("  20K size filter dropped        %d\n", st.DroppedTooBig)
	fmt.Printf("  MinHash dedup dropped          %d\n", st.DroppedDup)
	fmt.Printf("  kept %d files (%d bytes)\n\n", st.Kept, st.KeptBytes)

	// dedup demo: a file, a fork of it, an unrelated file
	a := kept[0].Content
	b := "// forked\n" + a
	c := "something about cooking dinner entirely unrelated to hardware design at all"
	mh := corpus.NewMinHash(128)
	sig := func(s string) []uint64 { return mh.Signature(corpus.Shingles(s, 3)) }
	fmt.Printf("similarity(file, fork)      = %.2f\n", corpus.Estimate(sig(a), sig(b)))
	fmt.Printf("similarity(file, unrelated) = %.2f\n\n", corpus.Estimate(sig(a), sig(c)))

	books := corpus.GenerateBooks(corpus.BookOptions{Seed: 8})
	wins := corpus.ExtractWindows(books)
	fmt.Printf("textbooks: %d books -> %d sliding windows kept\n\n", len(books), len(wins))

	var texts []string
	for _, f := range kept {
		texts = append(texts, corpus.NormalizeForLM(f.Content))
	}
	tok := bpe.Train(texts, 512)
	sample := "always @(posedge clk) begin q <= q + 1; end"
	norm := corpus.NormalizeForLM(sample)
	ids := tok.Encode(norm)
	fmt.Printf("tokenizer: %d merges learned\n", tok.NumMerges())
	fmt.Printf("  %q\n  -> %d tokens (%.1f bytes/token)\n",
		norm, len(ids), float64(len(norm))/float64(len(ids)))
}
