package corpus

import (
	"regexp"
	"strings"
)

// The paper's file filters (Section III-A.a).
const (
	maxFileBytes  = 20000 // drop files at or above this size: the 20K-character filter
	shingleK      = 5     // shingle width for dedup
	signatureSize = 64    // MinHash signature size
	dupThreshold  = 0.8   // similarity at which a file is a duplicate
)

// Stats summarize a pipeline run for the Section III-A reporting.
type Stats struct {
	Input         int
	DroppedNoPair int // no module/endmodule pair
	DroppedTooBig int // exceeded the size filter
	DroppedDup    int // MinHash near-duplicate
	Kept          int
	KeptBytes     int
}

var modulePairRe = regexp.MustCompile(`(?s)\bmodule\b.*\bendmodule\b`)

// HasModulePair reports whether the file contains at least one
// module...endmodule pair (the paper's keep rule).
func HasModulePair(content string) bool {
	return modulePairRe.MatchString(content)
}

// Curate runs the full filter+dedup pipeline over the raw files and returns
// the kept files and statistics.
func Curate(files []File) ([]File, Stats) {
	st := Stats{Input: len(files)}
	var candidates []File
	for _, f := range files {
		if !HasModulePair(f.Content) {
			st.DroppedNoPair++
			continue
		}
		if len(f.Content) >= maxFileBytes {
			st.DroppedTooBig++
			continue
		}
		candidates = append(candidates, f)
	}
	docs := make([]string, len(candidates))
	for i, f := range candidates {
		docs[i] = f.Content
	}
	kept := Dedup(docs, shingleK, signatureSize, dupThreshold)
	st.DroppedDup = len(candidates) - len(kept)
	out := make([]File, 0, len(kept))
	for _, idx := range kept {
		out = append(out, candidates[idx])
		st.KeptBytes += len(candidates[idx].Content)
	}
	st.Kept = len(out)
	return out, st
}

// Comment strippers for NormalizeForLM, compiled once: the generation
// front-end normalizes every prompt, so per-call regexp.MustCompile here
// used to dominate the babble path.
var (
	lineCommentRe  = regexp.MustCompile(`//[^\n]*`)
	blockCommentRe = regexp.MustCompile(`(?s)/\*.*?\*/`)
)

// NormalizeForLM canonicalizes Verilog text for language-model training:
// comments dropped, whitespace collapsed, punctuation space-separated so
// the BPE tokenizer sees a stable word stream.
func NormalizeForLM(content string) string {
	content = lineCommentRe.ReplaceAllString(content, "")
	content = blockCommentRe.ReplaceAllString(content, "")
	var sb strings.Builder
	sb.Grow(len(content) + len(content)/4)
	for _, r := range content {
		switch r {
		case '(', ')', '[', ']', '{', '}', ';', ',', ':', '@', '#', '=',
			'+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '?':
			sb.WriteByte(' ')
			sb.WriteRune(r)
			sb.WriteByte(' ')
		default:
			sb.WriteRune(r)
		}
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}
