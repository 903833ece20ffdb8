// Package corpus reproduces the paper's training-corpus pipeline
// (Section III-A): a GitHub-style Verilog corpus and a textbook-extraction
// corpus, de-duplicated with MinHash/Jaccard similarity and filtered by the
// module-pair and file-size rules. The GitHub snapshot and the PDF library
// are not available offline, so synthetic generators with the same
// statistical handles (duplication rate, size distribution, module density)
// stand in for them; the pipeline operations themselves are faithful.
package corpus

import (
	"hash/fnv"
	"strings"
)

// ShingleSet is the set of hashed k-gram shingles of a document.
type ShingleSet map[uint64]bool

// Shingles computes word k-gram shingles of text.
func Shingles(text string, k int) ShingleSet {
	if k < 1 {
		k = 1
	}
	words := strings.Fields(text)
	set := ShingleSet{}
	if len(words) < k {
		if len(words) > 0 {
			set[hashWords(words)] = true
		}
		return set
	}
	for i := 0; i+k <= len(words); i++ {
		set[hashWords(words[i:i+k])] = true
	}
	return set
}

func hashWords(words []string) uint64 {
	h := fnv.New64a()
	for _, w := range words {
		h.Write([]byte(w))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// MinHash computes fixed-size signatures whose per-slot agreement rate is
// an unbiased estimate of Jaccard similarity.
type MinHash struct {
	seeds []uint64
}

// NewMinHash creates a MinHash with the given signature size.
func NewMinHash(size int) *MinHash {
	if size < 1 {
		size = 1
	}
	seeds := make([]uint64, size)
	// splitmix64 stream for stable, well-spread seeds
	x := uint64(0x9E3779B97F4A7C15)
	for i := range seeds {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		seeds[i] = z ^ (z >> 31)
	}
	return &MinHash{seeds: seeds}
}

// Signature computes the MinHash signature of a shingle set.
func (m *MinHash) Signature(set ShingleSet) []uint64 {
	sig := make([]uint64, len(m.seeds))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	//vgencheck:ordered per-lane minimum reduction; min is commutative and associative, so the signature is order-free
	for s := range set {
		for i, seed := range m.seeds {
			h := mix(s ^ seed)
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// Estimate returns the estimated Jaccard similarity of two signatures.
func Estimate(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// Dedup removes near-duplicate documents: a document is dropped when its
// MinHash similarity estimate against any kept document reaches threshold.
// It returns the kept indexes in input order.
func Dedup(docs []string, shingleK, signatureSize int, threshold float64) []int {
	mh := NewMinHash(signatureSize)
	var kept []int
	var keptSigs [][]uint64
	for i, doc := range docs {
		sig := mh.Signature(Shingles(doc, shingleK))
		dup := false
		for _, ks := range keptSigs {
			if Estimate(sig, ks) >= threshold {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, i)
			keptSigs = append(keptSigs, sig)
		}
	}
	return kept
}
