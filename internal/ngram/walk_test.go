package ngram

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bpe"
	"repro/internal/corpus"
)

// paperTemps is eval.Temperatures, which this package cannot import (eval
// imports it); TestPaperTempsMatchEval in the external test package pins
// the copy.
var paperTemps = []float64{0.1, 0.3, 0.5, 0.7, 1.0}

// familyLMs builds the eight LMs a seed-1 model.Family samples babble
// from: one order-5 count store on the generic pre-training text and one
// on the normalized Verilog corpus (the family's default 300 files), each
// encoded with the family's 512-token BPE vocabulary, and the frozen
// views of orders 2 to 5 of each.
var familyLMs = sync.OnceValue(func() []*Model {
	var vtext []string
	kept, _ := corpus.Curate(corpus.GenerateGitHub(corpus.GitHubOptions{NumFiles: 300, Seed: 1}))
	for _, f := range kept {
		vtext = append(vtext, corpus.NormalizeForLM(f.Content))
	}
	natural := corpus.PretrainingText()
	tok := bpe.Train(append(slices.Clip(vtext), natural...), 512)
	var lms []*Model
	var buf []int
	for _, texts := range [][]string{natural, vtext} {
		store := New(5)
		for _, t := range texts {
			buf = tok.EncodeInto(buf[:0], t)
			store.Train(buf)
		}
		for order := 2; order <= 5; order++ {
			m := store.View(order)
			m.Freeze()
			lms = append(lms, m)
		}
	}
	return lms
})

// shapeVocab holds token ids of every width the context keys encode:
// compact ids, ids at and past the 24-bit escape, and negative ids.
var shapeVocab = []int{0, 1, 2, 3, wideTok - 1, wideTok, 1 << 24, 1<<24 + 1, 1 << 40, -1, -7}

// backoffLMs trains frozen models of orders 1 to 6 on many short
// documents over shapeVocab. Most documents end before a full context, so
// high levels hold few contexts and walks back off often.
func backoffLMs() []*Model {
	rng := rand.New(rand.NewSource(5))
	var lms []*Model
	for order := 1; order <= 6; order++ {
		m := New(order)
		for d := 0; d < 60; d++ {
			doc := make([]int, 1+rng.Intn(2*order+2))
			for i := range doc {
				doc[i] = shapeVocab[rng.Intn(1+rng.Intn(len(shapeVocab)))]
			}
			m.Train(doc)
		}
		m.Freeze()
		lms = append(lms, m)
	}
	return lms
}

func testLMs() []*Model { return append(slices.Clip(familyLMs()), backoffLMs()...) }

// mapLongest is the map store's longest context of history (the level
// contextDist stops at), or -1.
func mapLongest(m *Model, history []int) int {
	for n := min(len(history), m.order()-1); n >= 0; n-- {
		if d, ok := m.counts[n][ctxKey(history[len(history)-n:])]; ok && d.total > 0 {
			return n
		}
	}
	return -1
}

// checkState reports how s differs from the state of history: a fresh
// longest-suffix find through the frozen tables, and the level and
// context ids the map store names.
func checkState(m *Model, history []int, s state) error {
	fz := m.frozen
	if want := fz.longest(history); s != want {
		return fmt.Errorf("state %+v, a fresh find gives %+v", s, want)
	}
	n := mapLongest(m, history)
	if int(s.n) != n || (n < 0) != (s.e < 0) {
		return fmt.Errorf("state %+v, the map store's longest context is level %d", s, n)
	}
	if s.e < 0 {
		return nil
	}
	got := fz.levels[n].ctxToks[int(s.e)*n : int(s.e+1)*n]
	for i, t := range history[len(history)-n:] {
		if got[i] != int64(t) {
			return fmt.Errorf("state %+v holds context %v, history ends %v", s, got, history[len(history)-n:])
		}
	}
	return nil
}

// TestSuccessorMatchesLongestFind pins what makes the successor walk
// exact. Every succ[p] of every level must be the longest context of
// (context, toks[p]) by a fresh find and by the map store; and a walk from
// any prompt (empty, shorter than the order, unseen, or trained) must
// stand, after every token, where a fresh lookup of the whole history
// would put it.
func TestSuccessorMatchesLongestFind(t *testing.T) {
	for mi, m := range testLMs() {
		fz := m.frozen
		positions := 0
		for n := range fz.levels {
			lvl := &fz.levels[n]
			for e := 0; e+1 < len(lvl.distOff); e++ {
				next := make([]int, n, n+1)
				for i, t := range lvl.ctxToks[e*n : (e+1)*n] {
					next[i] = int(t)
				}
				for p := lvl.distOff[e]; p < lvl.distOff[e+1]; p++ {
					if err := checkState(m, append(next, int(lvl.toks[p])), lvl.succ[p]); err != nil {
						t.Fatalf("model %d (order %d) level %d entry %d token %d: %v", mi, m.order(), n, e, lvl.toks[p], err)
					}
					positions++
				}
			}
		}
		if positions == 0 {
			t.Fatalf("model %d has no distributions", mi)
		}

		// empty, one token (shorter than the order), unseen ids, a trained
		// top-level context, and that context run on past the order
		prompts := [][]int{nil, {int(fz.levels[0].toks[0])}, {1 << 50, -3}}
		if top := &fz.levels[m.order()-1]; len(top.distOff) > 1 {
			ctx := make([]int, m.order()-1)
			for i, t := range top.ctxToks[:m.order()-1] {
				ctx[i] = int(t)
			}
			prompts = append(prompts, ctx, append(slices.Clone(ctx), shapeVocab[:3]...))
		}
		for pi, prompt := range prompts {
			for _, temp := range []float64{0, 0.5, 1} {
				rng := rand.New(rand.NewSource(int64(pi)))
				history := slices.Clone(prompt)
				s := fz.longest(history)
				tbl := fz.table(temp)
				for i := 0; i < 150 && s.e >= 0; i++ {
					var tok int
					tok, s = fz.step(s, temp, tbl, rng)
					history = append(history, tok)
					if err := checkState(m, history, s); err != nil {
						t.Fatalf("model %d (order %d) prompt %v t=%v token %d: %v", mi, m.order(), prompt, temp, i, err)
					}
				}
			}
		}
	}
}

// sortSearch is the selection rule above replaced: sort.Search for the
// first weight past r, clamped to the last index.
func sortSearch[T int64 | float64](w []T, r float64) int {
	i := sort.Search(len(w), func(i int) bool { return float64(w[i]) > r })
	if i >= len(w) {
		i = len(w) - 1
	}
	return i
}

// boundaryDraws returns draws at and around every cumulative boundary of
// w, and the ends of [0, total).
func boundaryDraws[T int64 | float64](w []T) []float64 {
	rs := []float64{0, math.Nextafter(float64(w[len(w)-1]), 0)}
	for _, x := range w {
		f := float64(x)
		rs = append(rs, f, math.Nextafter(f, math.Inf(-1)), math.Nextafter(f, math.Inf(1)))
	}
	return rs
}

func checkAbove[T int64 | float64](t *testing.T, label string, w []T) {
	t.Helper()
	for _, r := range boundaryDraws(w) {
		if got, want := above(w, r), sortSearch(w, r); got != want {
			t.Fatalf("%s: draw %v over %v: above %d, sort.Search %d", label, r, w, got, want)
		}
	}
}

// TestSearchMatchesSortSearch pins the closure-free search to the
// sort.Search it replaced: the same index for draws exactly at, just below
// and just above every boundary of every distribution of the test LMs, on
// the integer counts (t=1) and on the weights at each paper temperature,
// and on runs of equal weights, which the softmax makes whenever a small
// count's weight is absorbed by the running total.
func TestSearchMatchesSortSearch(t *testing.T) {
	absorbed := 0
	for mi, m := range testLMs() {
		for n := range m.frozen.levels {
			lvl := &m.frozen.levels[n]
			for e := 0; e+1 < len(lvl.distOff); e++ {
				lo, hi := lvl.distOff[e], lvl.distOff[e+1]
				d := sortedDist{toks: lvl.toks[lo:hi], cum: lvl.cum[lo:hi]}
				label := fmt.Sprintf("model %d level %d entry %d", mi, n, e)
				checkAbove(t, label+" t=1", d.cum)
				for _, temp := range paperTemps {
					w := d.weights(temp, nil)
					for i := 1; i < len(w); i++ {
						if w[i] == w[i-1] {
							absorbed++
						}
					}
					checkAbove(t, fmt.Sprintf("%s t=%v", label, temp), w)
				}
			}
		}
	}
	if absorbed == 0 {
		t.Error("no distribution has equal consecutive weights; the equal-run case went unexercised")
	}
	for _, w := range [][]float64{{1}, {0, 0, 1}, {1, 1, 1}, {0.5, 1, 1, 1, 2, 2}, {3, 3}} {
		checkAbove(t, "hand-made", w)
	}
	checkAbove(t, "hand-made", []int64{1, 1, 2, 9, 9, 9})
}

// TestGenerateAllocatesNothing pins the frozen walk's cost: with a weight
// table built and a dst with room, Generate allocates nothing at any
// temperature regime.
func TestGenerateAllocatesNothing(t *testing.T) {
	m := familyLMs()[7]
	prompt := []int{int(m.frozen.levels[0].toks[0])}
	dst := make([]int, 0, 120)
	for _, temp := range []float64{0, 0.7, 1} {
		rng := rand.New(rand.NewSource(1))
		dst = m.Generate(dst[:0], prompt, 120, temp, rng)
		if len(dst) != 120 {
			t.Fatalf("t=%v: generated %d tokens, want 120", temp, len(dst))
		}
		if allocs := testing.AllocsPerRun(100, func() { dst = m.Generate(dst[:0], prompt, 120, temp, rng) }); allocs != 0 {
			t.Fatalf("t=%v: Generate allocates %.1f times, want 0", temp, allocs)
		}
	}
}

// fuzzTok maps a fuzz byte to a token id: the low three bits pick one of
// eight ids, bit 3 lifts it past the 24-bit key width and bit 4 negates
// it. 0xFF ends a training document instead.
func fuzzTok(b byte) int {
	id := int(b & 7)
	if b&8 != 0 {
		id += 1 << 24
	}
	if b&16 != 0 {
		id = -id - 1
	}
	return id
}

// FuzzFrozenMatchesMap is the frozen sampler's equivalence contract over
// arbitrary models: training documents, order 1 to 6, prompt, temperature
// and seed are fuzzed, and the frozen Generate must equal the map-backed
// Generate token for token.
func FuzzFrozenMatchesMap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 4, 1, 2, 3}, uint8(2), []byte{1, 2}, uint8(3), int64(1))
	// wide and negative ids
	f.Add([]byte{8, 9, 8, 17, 8, 9, 25, 1, 8, 9, 8}, uint8(2), []byte{8, 9}, uint8(2), int64(2))
	// short documents that end mid-context: walks back off
	f.Add([]byte{1, 2, 0xFF, 2, 3, 0xFF, 3, 0xFF, 1, 2, 3, 4, 5, 0xFF, 4, 1}, uint8(5), []byte{1, 2, 3, 4, 5, 6}, uint8(1), int64(3))
	f.Add([]byte{}, uint8(0), []byte{}, uint8(0), int64(4))
	temps := []float64{0, 0.1, 0.5, 1, 1.3}
	f.Fuzz(func(t *testing.T, docs []byte, order uint8, prompt []byte, temp uint8, seed int64) {
		if len(docs) > 4096 || len(prompt) > 64 {
			t.Skip()
		}
		mapM, frozenM := New(int(order%6)+1), New(int(order%6)+1)
		for _, doc := range bytes.Split(docs, []byte{0xFF}) {
			ids := make([]int, len(doc))
			for i, b := range doc {
				ids[i] = fuzzTok(b)
			}
			mapM.Train(ids)
			frozenM.Train(ids)
		}
		frozenM.Freeze()
		p := make([]int, len(prompt))
		for i, b := range prompt {
			p[i] = fuzzTok(b)
		}
		tp := temps[int(temp)%len(temps)]
		want := mapM.Generate(nil, p, 64, tp, rand.New(rand.NewSource(seed)))
		got := frozenM.Generate(nil, p, 64, tp, rand.New(rand.NewSource(seed)))
		if !slices.Equal(got, want) {
			t.Fatalf("order %d t=%v prompt %v: frozen %v, map %v", mapM.order(), tp, p, got, want)
		}
	})
}
