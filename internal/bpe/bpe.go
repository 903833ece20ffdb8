// Package bpe implements a trainable byte-pair encoder (Gage 1994, as used
// by the paper's LLM tokenizers). Training learns merge rules from a
// corpus; encoding applies them greedily in learned order. The paper's
// models consume prompts as BPE token streams and are budgeted in tokens
// (max_tokens 300/256), so the evaluation pipeline needs a real tokenizer
// to reproduce truncation behaviour.
//
// Both training and encoding work over token ids, not token strings: the
// merge table is a rank map keyed by packed (left-id, right-id) pairs, and
// the pair-merge loop rewrites a reusable []int32 in place. EncodeInto is
// the allocation-free entry point for callers that hold a destination
// buffer; Encode wraps it.
package bpe

import (
	"sort"
	"strings"
	"sync"
)

// Tokenizer is a trained byte-pair encoder.
type Tokenizer struct {
	merges   []merge          // learned merge rules, in application order
	vocab    map[string]int   // token string -> id
	tokens   []string         // id -> token string
	rank     map[pairKey]int  // string merge pair -> rank (reference path)
	idRank   map[uint64]int32 // packed id pair -> rank (hot encode path)
	mergedID []int32          // rank -> merged token id
}

type merge struct {
	left, right string
}

type pairKey struct {
	left, right string
}

// pairID packs an adjacent token-id pair into one map key. Token ids are
// vocabulary indices, so they always fit 32 bits.
func pairID(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// Train learns up to vocabSize-256 merges from the corpus. The initial
// vocabulary is the 256 single bytes; words are split on whitespace with a
// word-boundary marker so merges never cross words.
func Train(corpus []string, vocabSize int) *Tokenizer {
	t := &Tokenizer{
		vocab:  map[string]int{},
		rank:   map[pairKey]int{},
		idRank: map[uint64]int32{},
	}
	for i := 0; i < 256; i++ {
		tok := string(rune(i))
		t.vocab[tok] = i
		t.tokens = append(t.tokens, tok)
	}

	// word frequency table
	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range strings.Fields(doc) {
			wordFreq[w]++
		}
	}
	type wordState struct {
		parts []int32
		key   string // single-byte-token expansion; the deterministic sort key
		freq  int
	}
	var words []*wordState
	for w, f := range wordFreq {
		parts := make([]int32, len(w))
		var kb strings.Builder
		for i := 0; i < len(w); i++ {
			parts[i] = int32(w[i])
			kb.WriteRune(rune(w[i]))
		}
		words = append(words, &wordState{parts: parts, key: kb.String(), freq: f})
	}
	// deterministic iteration
	sort.Slice(words, func(i, j int) bool { return words[i].key < words[j].key })

	// Incremental pair accounting: counts holds the exact adjacent-pair
	// totals (zero entries deleted), and occurs indexes which words
	// currently contain each pair. A merge then only re-counts the touched
	// words instead of rescanning the whole corpus per iteration.
	counts := map[uint64]int{}
	occurs := map[uint64]map[int]struct{}{}
	addWord := func(idx int) {
		ws := words[idx]
		for i := 0; i+1 < len(ws.parts); i++ {
			k := pairID(ws.parts[i], ws.parts[i+1])
			counts[k] += ws.freq
			set, ok := occurs[k]
			if !ok {
				set = map[int]struct{}{}
				occurs[k] = set
			}
			set[idx] = struct{}{}
		}
	}
	removeWord := func(idx int) {
		ws := words[idx]
		for i := 0; i+1 < len(ws.parts); i++ {
			k := pairID(ws.parts[i], ws.parts[i+1])
			counts[k] -= ws.freq
			if counts[k] <= 0 {
				delete(counts, k)
			}
			if set := occurs[k]; set != nil {
				delete(set, idx)
				if len(set) == 0 {
					delete(occurs, k)
				}
			}
		}
	}
	for i := range words {
		addWord(i)
	}

	// lessID is the tie-break order on equal counts: lexicographic over the
	// pair's token strings, matching the string-keyed reference loop.
	lessID := func(a, b uint64) bool {
		al, bl := t.tokens[a>>32], t.tokens[b>>32]
		if al != bl {
			return al < bl
		}
		return t.tokens[uint32(a)] < t.tokens[uint32(b)]
	}

	target := vocabSize - 256
	for len(t.merges) < target {
		if len(counts) == 0 {
			break
		}
		best := uint64(0)
		bestCount := 0
		//vgencheck:ordered argmax with a total tie-break on (count, token-pair strings) picks the same winner in any iteration order
		for k, c := range counts {
			if c > bestCount || (c == bestCount && lessID(k, best)) {
				best, bestCount = k, c
			}
		}
		if bestCount < 2 {
			break // no productive merges left
		}
		left, right := t.tokens[best>>32], t.tokens[uint32(best)]
		t.rank[pairKey{left, right}] = len(t.merges)
		t.idRank[best] = int32(len(t.merges))
		t.merges = append(t.merges, merge{left: left, right: right})
		joined := left + right
		id, ok := t.vocab[joined]
		if !ok {
			id = len(t.tokens)
			t.vocab[joined] = id
			t.tokens = append(t.tokens, joined)
		}
		t.mergedID = append(t.mergedID, int32(id))
		// apply the merge to the touched words only, updating counts around
		// each rewrite (removeWord mutates occurs[best], so snapshot first)
		touched := make([]int, 0, len(occurs[best]))
		for idx := range occurs[best] {
			touched = append(touched, idx)
		}
		// The count/occurrence updates below are commutative, so rewrite
		// order cannot change the trained result — but sorted order keeps
		// the intermediate count states identical run to run, which is
		// what the incremental-vs-naive differential test diffs against.
		sort.Ints(touched)
		for _, idx := range touched {
			removeWord(idx)
			words[idx].parts = mergePairInPlace(words[idx].parts, best, int32(id))
			addWord(idx)
		}
	}
	return t
}

// lessPair is the naive trainer's tie-break order on token pairs.
//
//vgencheck:oracle reference tie-break of the naive trainer TestIncrementalMatchesNaive checks Train against
func lessPair(a, b pairKey) bool {
	if a.left != b.left {
		return a.left < b.left
	}
	return a.right < b.right
}

// applyMerge rewrites a string part list under one merge rule. The
// production paths run id-based (mergePairInPlace).
//
//vgencheck:oracle reference merge of the naive trainer TestIncrementalMatchesNaive checks Train against
func applyMerge(parts []string, m pairKey) []string {
	out := parts[:0]
	i := 0
	for i < len(parts) {
		if i+1 < len(parts) && parts[i] == m.left && parts[i+1] == m.right {
			out = append(out, m.left+m.right)
			i += 2
		} else {
			out = append(out, parts[i])
			i++
		}
	}
	return out
}

// mergePairInPlace rewrites every non-overlapping occurrence of the pair,
// left to right, into the merged id — in place on the part list's backing
// array (the write index never passes the read index).
func mergePairInPlace(parts []int32, pair uint64, merged int32) []int32 {
	l, r := int32(pair>>32), int32(uint32(pair))
	out := parts[:0]
	i := 0
	for i < len(parts) {
		if i+1 < len(parts) && parts[i] == l && parts[i+1] == r {
			out = append(out, merged)
			i += 2
		} else {
			out = append(out, parts[i])
			i++
		}
	}
	return out
}

// VocabSize returns the number of distinct tokens.
func (t *Tokenizer) VocabSize() int { return len(t.tokens) }

// NumMerges returns the number of learned merge rules.
func (t *Tokenizer) NumMerges() int { return len(t.merges) }

// Token returns the string form of a token id.
func (t *Tokenizer) Token(id int) (string, bool) {
	if id < 0 || id >= len(t.tokens) {
		return "", false
	}
	return t.tokens[id], true
}

// wordScratch pools the per-word part buffers the encode loop merges in
// place, so steady-state encoding allocates nothing per word.
var wordScratch = sync.Pool{New: func() any {
	s := make([]int32, 0, 64)
	return &s
}}

// appendWord BPE-encodes a single whitespace-free word onto dst.
//
// Each outer iteration finds the lowest-rank adjacent pair and merges all
// its non-overlapping occurrences left to right. That is exactly the
// classic one-occurrence-per-iteration loop collapsed: ranks are unique,
// and a merge can only create pairs containing the merged token, whose
// rules were necessarily learned later (higher rank) — so while any
// occurrence of the best pair remains, it stays the best pair.
func (t *Tokenizer) appendWord(dst []int, w string) []int {
	sp := wordScratch.Get().(*[]int32)
	parts := (*sp)[:0]
	for i := 0; i < len(w); i++ {
		parts = append(parts, int32(w[i]))
	}
	for {
		bestRank := int32(-1)
		bestPair := uint64(0)
		for i := 0; i+1 < len(parts); i++ {
			if r, ok := t.idRank[pairID(parts[i], parts[i+1])]; ok && (bestRank < 0 || r < bestRank) {
				bestRank, bestPair = r, pairID(parts[i], parts[i+1])
			}
		}
		if bestRank < 0 {
			break
		}
		parts = mergePairInPlace(parts, bestPair, t.mergedID[bestRank])
	}
	for _, p := range parts {
		dst = append(dst, int(p))
	}
	*sp = parts
	wordScratch.Put(sp)
	return dst
}

// Encode tokenizes text: words are BPE-encoded, and single whitespace
// separators are preserved as byte tokens so decoding round-trips.
func (t *Tokenizer) Encode(text string) []int {
	return t.EncodeInto(nil, text)
}

// EncodeInto appends the token ids of text onto dst and returns the
// extended slice — the zero-allocation entry point for callers that reuse
// a buffer across calls (pass dst[:0] to overwrite).
func (t *Tokenizer) EncodeInto(dst []int, text string) []int {
	i := 0
	for i < len(text) {
		j := i
		for j < len(text) && !isSpace(text[j]) {
			j++
		}
		if j > i {
			dst = t.appendWord(dst, text[i:j])
			i = j
		}
		for i < len(text) && isSpace(text[i]) {
			dst = append(dst, int(text[i]))
			i++
		}
	}
	return dst
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Decode returns prefix, then the text of token ids, then suffix, as one
// string built in one allocation; unknown ids render as U+FFFD.
func (t *Tokenizer) Decode(prefix string, ids []int, suffix string) string {
	size := len(prefix) + len(suffix)
	for _, id := range ids {
		if id >= 0 && id < len(t.tokens) {
			size += len(t.tokens[id])
		} else {
			size += len("�")
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString(prefix)
	for _, id := range ids {
		if tok, ok := t.Token(id); ok {
			sb.WriteString(tok)
		} else {
			sb.WriteRune('�')
		}
	}
	sb.WriteString(suffix)
	return sb.String()
}
