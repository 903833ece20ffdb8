// Command vgen-corpus runs the Section III-A training-corpus pipeline:
// synthetic GitHub snapshot, filters, MinHash dedup, textbook extraction,
// and tokenizer training, printing the statistics the paper reports.
package main

import (
	"flag"
	"fmt"

	"repro/internal/bpe"
	"repro/internal/corpus"
)

func main() {
	seed := flag.Int64("seed", 1, "generator seed")
	files := flag.Int("files", 500, "synthetic GitHub snapshot size")
	books := flag.Int("books", 7, "synthetic textbook count")
	vocab := flag.Int("vocab", 512, "BPE vocabulary size")
	showSample := flag.Bool("sample", false, "print one curated file")
	flag.Parse()

	raw := corpus.GenerateGitHub(corpus.GitHubOptions{NumFiles: *files, Seed: *seed})
	kept, st := corpus.Curate(raw)
	fmt.Println("GitHub pipeline (synthetic snapshot):")
	fmt.Printf("  raw files:           %d\n", st.Input)
	fmt.Printf("  dropped no-module:   %d\n", st.DroppedNoPair)
	fmt.Printf("  dropped >=20K chars: %d\n", st.DroppedTooBig)
	fmt.Printf("  dropped duplicates:  %d\n", st.DroppedDup)
	fmt.Printf("  kept:                %d files, %d bytes\n", st.Kept, st.KeptBytes)

	bk := corpus.GenerateBooks(corpus.BookOptions{NumBooks: *books, Seed: *seed + 1})
	wins := corpus.ExtractWindows(bk)
	fmt.Println("Textbook pipeline:")
	fmt.Printf("  books:               %d\n", len(bk))
	fmt.Printf("  windows kept:        %d\n", len(wins))

	var texts []string
	for _, f := range kept {
		texts = append(texts, corpus.NormalizeForLM(f.Content))
	}
	for _, w := range wins {
		texts = append(texts, corpus.NormalizeForLM(w))
	}
	tok := bpe.Train(texts, *vocab)
	fmt.Println("Tokenizer:")
	fmt.Printf("  vocabulary:          %d tokens (%d merges)\n", tok.VocabSize(), tok.NumMerges())
	if len(texts) > 0 {
		// token counts over the whole stream, one reused buffer
		var ids []int
		total, sample := 0, 0
		for i, t := range texts {
			ids = tok.EncodeInto(ids[:0], t)
			total += len(ids)
			if i == 0 {
				sample = len(ids)
			}
		}
		fmt.Printf("  sample compression:  %d bytes -> %d tokens\n", len(texts[0]), sample)
		fmt.Printf("  corpus tokens:       %d\n", total)
	}

	if *showSample && len(kept) > 0 {
		fmt.Println("\nSample curated file:")
		fmt.Println(kept[0].Content)
	}
}
