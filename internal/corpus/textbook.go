package corpus

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
)

// This file reproduces the textbook branch of the corpus pipeline
// (Section III-A.b): text "extracted from PDFs" (synthesized here), cleaned
// of irrelevant passages, screened for Verilog-looking snippets with
// regular expressions, and cut into overlapping sliding windows.

// chaptersPerBook is the chapter count of each synthetic textbook.
const chaptersPerBook = 5

// BookOptions parameterize the synthetic textbook generator.
type BookOptions struct {
	NumBooks int // 0 = 7 (the paper used 70; default is 1:10 scale)
	Seed     int64
}

func (o BookOptions) numBooks() int {
	if o.NumBooks <= 0 {
		return 7
	}
	return o.NumBooks
}

var proseSnippets = []string{
	"Hardware description languages let designers express parallel behaviour directly.",
	"A flip flop samples its input on the active clock edge and holds the value otherwise.",
	"Blocking assignments execute in statement order, while nonblocking assignments update together at the end of the time step.",
	"Synthesis tools map the register transfer description onto gates and flip flops.",
	"The sensitivity list of a combinational always block must include every signal the block reads.",
	"A test bench drives stimulus into the design under test and compares observed outputs against expectations.",
	"State machines are usually coded with separate state register and next state logic processes.",
	"Care must be taken with signed arithmetic, because context determines operand extension.",
}

// GenerateBooks synthesizes OCR-like textbook text: prose paragraphs,
// embedded code listings, and front/back-matter noise that the cleaner must
// drop.
func GenerateBooks(opts BookOptions) []string {
	rng := rand.New(rand.NewSource(opts.Seed))
	books := make([]string, 0, opts.numBooks())
	for b := 0; b < opts.numBooks(); b++ {
		var sb strings.Builder
		sb.WriteString("PREFACE\nThis book is dedicated to our students. Thanks to the reviewers.\n\n")
		sb.WriteString("ACKNOWLEDGMENTS\nThe authors thank the funding agencies.\n\n")
		for c := 0; c < chaptersPerBook; c++ {
			fmt.Fprintf(&sb, "CHAPTER %d\n", c+1)
			paras := 2 + rng.Intn(3)
			for p := 0; p < paras; p++ {
				sb.WriteString(proseSnippets[rng.Intn(len(proseSnippets))])
				sb.WriteString("\n\n")
				if rng.Intn(2) == 0 {
					sb.WriteString("Listing:\n")
					sb.WriteString(GenerateModule(rng))
					sb.WriteString("\n")
				}
			}
		}
		sb.WriteString("INDEX\nadder 12\ncounter 34\nflip flop 56\n")
		books = append(books, sb.String())
	}
	return books
}

var (
	frontBackMatterRe = regexp.MustCompile(`(?m)^(PREFACE|ACKNOWLEDGMENTS|INDEX)\b`)
	codeLineRe        = regexp.MustCompile(`\b(module|endmodule|assign|always|input|output|reg|wire|posedge|begin|end)\b|<=|@\(`)
)

// CleanBook removes front/back matter sections (preface, acknowledgments,
// index) from extracted book text.
func CleanBook(text string) string {
	var out []string
	skipping := false
	for _, line := range strings.Split(text, "\n") {
		if frontBackMatterRe.MatchString(line) {
			skipping = true
			continue
		}
		if strings.HasPrefix(line, "CHAPTER") {
			skipping = false
			continue
		}
		if !skipping {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// CodeDensity returns the fraction of non-empty lines that look like
// Verilog (the regex syntax screen from the paper).
func CodeDensity(text string) float64 {
	lines := 0
	code := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		lines++
		if codeLineRe.MatchString(line) {
			code++
		}
	}
	if lines == 0 {
		return 0
	}
	return float64(code) / float64(lines)
}

// The sliding-window example cutter's shape.
const (
	windowWords = 120 // words per window
	strideWords = 60  // words between window starts (50% overlap)
	minDensity  = 0.2 // windows below this code density are dropped
)

// WordCodeDensity returns the fraction of words that look like Verilog
// tokens; used to screen flattened sliding windows.
func WordCodeDensity(words []string) float64 {
	if len(words) == 0 {
		return 0
	}
	code := 0
	for _, w := range words {
		if codeLineRe.MatchString(w) {
			code++
		}
	}
	return float64(code) / float64(len(words))
}

// ExtractWindows runs the textbook pipeline over raw books: clean, screen,
// and cut overlapping windows that pass the code-density threshold.
func ExtractWindows(books []string) []string {
	var out []string
	for _, book := range books {
		cleaned := CleanBook(book)
		words := strings.Fields(cleaned)
		for start := 0; start < len(words); start += strideWords {
			end := start + windowWords
			if end > len(words) {
				end = len(words)
			}
			win := words[start:end]
			if WordCodeDensity(win) >= minDensity {
				out = append(out, strings.Join(win, " "))
			}
			if end == len(words) {
				break
			}
		}
	}
	return out
}
