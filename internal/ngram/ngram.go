// Package ngram implements an order-k backoff n-gram language model over
// token ids, with temperature-controlled sampling. It is the trainable
// generative core of the simulated LLMs: "fine-tuning" a model on the
// Verilog corpus is literally training this LM on the corpus token stream,
// and the free-running completions it produces are what flow through the
// compile/functional pipeline when a model emits neither a correct nor a
// near-miss solution.
//
// Training mutates a map-of-maps count store, whose first k levels are
// exactly an order-k model's counts, so View serves every lower order from
// one trained store. After training, Freeze
// compiles that store into a packed immutable sampler: open-addressed
// context tables keyed by uint64 hashes, per-context sorted next-token
// arrays with cumulative counts, and for every next token the successor
// context the history matches once that token is drawn. Generate looks
// the prompt's context up once and then walks successors, so a sampled
// token costs one search and one slice index: no hashing, no probe and no
// history, and a Generate into a large enough buffer allocates nothing. On
// a temperature's first use (other than 0 and 1) the frozen sampler
// computes every distribution's cumulative weights into one flat table per
// backoff level, so a draw needs no log or exp per candidate token. The
// map store stays intact as the differential baseline, rehashing the
// history and recomputing weights per draw; both paths draw from shared
// selection code and are byte-identical for every temperature and RNG
// stream.
package ngram

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Model is an order-k n-gram LM with stupid-backoff smoothing. Its order
// is the number of count levels it reads.
type Model struct {
	counts []map[string]*dist // counts[n] holds (n-token context) -> next-token distribution
	frozen *frozenModel       // packed sampler; nil until Freeze, cleared by Train
	view   bool               // counts belong to another model (View); Train panics
}

type dist struct {
	next  map[int]int
	total int
}

// New creates an untrained model of the given order (order >= 1; order 1 is
// a unigram model).
func New(order int) *Model {
	if order < 1 {
		order = 1
	}
	m := &Model{counts: make([]map[string]*dist, order)}
	for i := range m.counts {
		m.counts[i] = map[string]*dist{}
	}
	return m
}

func (m *Model) order() int { return len(m.counts) }

// View returns a read-only order-k model over m's counts: an order-k model
// counts exactly the first k levels an order-m model counts on the same
// text, so the view samples, freezes and measures perplexity as an order-k
// model trained on that text would. order is clamped to [1, m's order].
// The view shares m's count maps, so m must not be trained once views of
// it are in use; training the view itself panics.
func (m *Model) View(order int) *Model {
	order = min(max(order, 1), m.order())
	return &Model{counts: m.counts[:order:order], view: true}
}

// wideTok is the first token id that no longer fits the compact 3-byte
// context-key encoding. Ids at or above it (and negative ids) escape to a
// marker + 8-byte form; the marker bytes 0xFF 0xFF 0xFF are unreachable in
// the 3-byte form (they would decode to wideTok itself), so keys stay
// injective across mixed widths. The pre-guard encoding silently truncated
// ids to 24 bits, colliding contexts that differed only in high bits.
const wideTok = 0xFFFFFF

func ctxKey(toks []int) string { return string(appendCtxKey(nil, toks)) }

// appendCtxKey appends toks' context key to b.
func appendCtxKey(b []byte, toks []int) []byte {
	for _, t := range toks {
		if t >= 0 && t < wideTok {
			b = append(b, byte(t), byte(t>>8), byte(t>>16))
			continue
		}
		u := uint64(t)
		b = append(b, 0xFF, 0xFF, 0xFF,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return b
}

// ctxKeyTokens decodes a context key back to its token ids (Freeze walks
// the trained map keys to build the packed tables).
func ctxKeyTokens(key string, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < len(key); {
		if key[i] == 0xFF && key[i+1] == 0xFF && key[i+2] == 0xFF {
			u := uint64(key[i+3]) | uint64(key[i+4])<<8 | uint64(key[i+5])<<16 |
				uint64(key[i+6])<<24 | uint64(key[i+7])<<32 | uint64(key[i+8])<<40 |
				uint64(key[i+9])<<48 | uint64(key[i+10])<<56
			out = append(out, int(u))
			i += 11
			continue
		}
		out = append(out, int(key[i])|int(key[i+1])<<8|int(key[i+2])<<16)
		i += 3
	}
	return out
}

// Train consumes one token sequence (a document). Training invalidates any
// packed sampler built by an earlier Freeze.
func (m *Model) Train(tokens []int) {
	if m.view {
		panic("ngram: Train on a read-only view")
	}
	m.frozen = nil
	var key []byte // a lookup keyed by string(key) does not allocate
	for i, tok := range tokens {
		for n := range m.counts {
			if i < n {
				break
			}
			key = appendCtxKey(key[:0], tokens[i-n:i])
			d := m.counts[n][string(key)]
			if d == nil {
				d = &dist{next: map[int]int{}}
				m.counts[n][string(key)] = d
			}
			d.next[tok]++
			d.total++
		}
	}
}

// contextDist finds the longest-context distribution for the given history
// (stupid backoff).
func (m *Model) contextDist(history []int) *dist {
	for n := m.order() - 1; n >= 0; n-- {
		if len(history) < n {
			continue
		}
		key := ctxKey(history[len(history)-n:])
		if d, ok := m.counts[n][key]; ok && d.total > 0 {
			return d
		}
	}
	return nil
}

// ---- shared selection core -------------------------------------------------

// sortedDist is one next-token distribution viewed as ascending token ids
// with inclusive cumulative counts. Both the map path (which builds the
// view per call) and the frozen path (which stores it packed) sample
// through the same pick method, so the two engines are byte-identical by
// construction.
type sortedDist struct {
	toks []int64
	cum  []int64
}

func (d sortedDist) count(i int) int64 {
	if i == 0 {
		return d.cum[0]
	}
	return d.cum[i] - d.cum[i-1]
}

// pick draws the index of one token. Temperature 0 is greedy (ties break
// to the smallest token id); temperature 1 is a binary search over the
// integer cumulative counts (one rng draw, no float weight construction);
// other temperatures build softmax-over-log-count cumulative weights in
// scratch and search those. Exactly one rng.Float64 is consumed per draw
// for every temperature > 0.
func (d sortedDist) pick(temperature float64, rng *rand.Rand, scratch *[]float64) int {
	n := len(d.toks)
	if temperature <= 0 {
		best, bestCount := 0, int64(-1)
		for i := 0; i < n; i++ {
			if c := d.count(i); c > bestCount {
				best, bestCount = i, c
			}
		}
		return best
	}
	if temperature == 1 {
		return above(d.cum, rng.Float64()*float64(d.cum[n-1]))
	}
	*scratch = d.weights(temperature, (*scratch)[:0])
	return search(*scratch, rng)
}

// weights appends to w the softmax-over-log-count cumulative weights at
// the given temperature: w[i] is the mass of tokens 0..i, so the last
// element is the total. The result depends on nothing but the counts and
// the temperature, which is what lets the frozen sampler tabulate it.
func (d sortedDist) weights(temperature float64, w []float64) []float64 {
	maxLog := math.Inf(-1)
	for i := range d.toks {
		l := math.Log(float64(d.count(i))) / temperature
		if l > maxLog {
			maxLog = l
		}
		w = append(w, l)
	}
	total := 0.0
	for i := range w {
		total += math.Exp(w[i] - maxLog)
		w[i] = total
	}
	return w
}

// search draws the index of one token from cumulative weights w (as built
// by weights) with exactly one rng.Float64.
func search(w []float64, rng *rand.Rand) int {
	return above(w, rng.Float64()*w[len(w)-1])
}

// above returns the first i with w[i] > r, clamped to len(w)-1: the index
// sort.Search(len(w), func(i int) bool { return float64(w[i]) > r }) finds,
// by the same halving, without a closure call per probe.
func above[T int64 | float64](w []T, r float64) int {
	lo, hi := 0, len(w)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if float64(w[h]) > r {
			hi = h
		} else {
			lo = h + 1
		}
	}
	if lo == len(w) {
		lo--
	}
	return lo
}

// sortedFromMap builds the selection view of a map-backed distribution
// (the differential-baseline path; allocates per call).
func sortedFromMap(d *dist) sortedDist {
	toks := make([]int64, 0, len(d.next))
	for t := range d.next {
		toks = append(toks, int64(t))
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	cum := make([]int64, len(toks))
	var c int64
	for i, t := range toks {
		c += int64(d.next[int(t)])
		cum[i] = c
	}
	return sortedDist{toks: toks, cum: cum}
}

// scratchPool holds the per-goroutine float scratch the map path
// accumulates weights into at temperatures other than 0 and 1.
var scratchPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 64)
	return &s
}}

// ---- frozen sampler ---------------------------------------------------------

// frozenModel is the packed immutable sampler: one open-addressed context
// table per backoff level, each entry pointing at a slice of the level's
// shared sorted-token/cumulative-count arrays. Lookups hash the history
// suffix to a uint64 (full token width; no truncation) and verify the
// stored context ids, so hash collisions cost a probe, never a wrong
// distribution. Only a prompt is looked up: every later context is the
// successor stored with the token drawn.
//
// temps holds one weight table per temperature sampled at (other than 0
// and 1) as a short copy-on-write list: readers load it without a lock,
// and a first use builds its table under mu and publishes a longer copy.
// A table is a pure function of the immutable counts and the temperature,
// computed by the same code pick runs (bit-identical floats), so it never
// goes stale and lives exactly as long as the frozen tables.
type frozenModel struct {
	levels []frozenLevel
	mu     sync.Mutex // serializes table builds
	temps  atomic.Pointer[[]*tempTable]
}

// tempTable is every distribution's cumulative weights at one
// temperature: weights[n] is parallel to levels[n].toks/cum, so entry e's
// weights are weights[n][distOff[e]:distOff[e+1]].
type tempTable struct {
	temp    uint64 // math.Float64bits of the temperature
	weights [][]float64
}

type frozenLevel struct {
	n       int
	mask    uint32
	table   []int32 // entry index + 1; 0 = empty slot
	ctxToks []int64 // packed contexts, n ids per entry
	distOff []int32 // entry i's dist is toks/cum[distOff[i]:distOff[i+1]]
	toks    []int64
	cum     []int64
	succ    []state // parallel to toks: the longest context once toks[p] is drawn
}

// state is where a history stands in the frozen tables: the entry of its
// longest matching context, at level n. e < 0 means no context matches,
// which happens only in an untrained model.
type state struct{ n, e int32 }

// mix64 is the splitmix64 finalizer, applied per context token.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashTokens(ctx []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, t := range ctx {
		h = mix64(h ^ uint64(t))
	}
	return h
}

// Freeze compiles the trained counts into the packed sampler. The map
// store is left untouched (Perplexity and the differential baseline keep
// reading it); sampling switches to the packed tables until the next
// Train. Token ids are carried full-width; no id range is corrupted.
//
// Every distribution position p of entry e at level n also gets succ[p],
// the longest context of (context e, toks[p]), found by the same lookup a
// prompt gets. That is the exact next context of any history whose longest
// context is e: a longer match, at level n+2 or above, would end with a
// level-(n+1) suffix of the history before toks[p] that Train counted
// (toks[p] followed it), so the step that matched e would have matched it.
func (m *Model) Freeze() {
	fz := &frozenModel{levels: make([]frozenLevel, m.order())}
	for n := range m.counts {
		lvl := &fz.levels[n]
		lvl.n = n
		size := 4
		for size < 2*len(m.counts[n]) {
			size <<= 1
		}
		lvl.table = make([]int32, size)
		lvl.mask = uint32(size - 1)
		lvl.distOff = append(lvl.distOff, 0)
		//vgencheck:ordered open-addressed layout varies with insertion order, but probes are id-verified and each context's distribution is sorted, so sampled bytes are layout-independent (TestFreezeLayoutIndependent)
		for key, d := range m.counts[n] {
			ctx := ctxKeyTokens(key, n)
			entry := int32(len(lvl.distOff) - 1)
			for _, t := range ctx {
				lvl.ctxToks = append(lvl.ctxToks, int64(t))
			}
			sd := sortedFromMap(d)
			lvl.toks = append(lvl.toks, sd.toks...)
			lvl.cum = append(lvl.cum, sd.cum...)
			lvl.distOff = append(lvl.distOff, int32(len(lvl.toks)))
			idx := uint32(hashTokens(ctx)) & lvl.mask
			for lvl.table[idx] != 0 {
				idx = (idx + 1) & lvl.mask
			}
			lvl.table[idx] = entry + 1
		}
	}
	next := make([]int, 0, m.order()) // a context (n < order ids) and one token
	for n := range fz.levels {
		lvl := &fz.levels[n]
		lvl.succ = make([]state, len(lvl.toks))
		for e := 0; e+1 < len(lvl.distOff); e++ {
			next = next[:0]
			for _, t := range lvl.ctxToks[e*n : (e+1)*n] {
				next = append(next, int(t))
			}
			for p := lvl.distOff[e]; p < lvl.distOff[e+1]; p++ {
				lvl.succ[p] = fz.longest(append(next, int(lvl.toks[p])))
			}
		}
	}
	m.frozen = fz
}

// find returns the entry index for the context, or -1.
func (lvl *frozenLevel) find(ctx []int) int {
	idx := uint32(hashTokens(ctx)) & lvl.mask
	for {
		e := lvl.table[idx]
		if e == 0 {
			return -1
		}
		off := int(e-1) * lvl.n
		match := true
		for i, t := range ctx {
			if lvl.ctxToks[off+i] != int64(t) {
				match = false
				break
			}
		}
		if match {
			return int(e - 1)
		}
		idx = (idx + 1) & lvl.mask
	}
}

// longest returns the state of history: its longest suffix that is a
// trained context (stupid backoff).
func (fz *frozenModel) longest(history []int) state {
	for n := min(len(history), len(fz.levels)-1); n >= 0; n-- {
		if e := fz.levels[n].find(history[len(history)-n:]); e >= 0 {
			return state{n: int32(n), e: int32(e)}
		}
	}
	return state{e: -1}
}

// step draws one token from state s (which must match a context) and
// returns it with the state of the history extended by it. tbl is
// temperature's weight table, nil at 0 and 1.
func (fz *frozenModel) step(s state, temperature float64, tbl *tempTable, rng *rand.Rand) (int, state) {
	lvl := &fz.levels[s.n]
	lo, hi := lvl.distOff[s.e], lvl.distOff[s.e+1]
	var i int
	if tbl == nil {
		i = sortedDist{toks: lvl.toks[lo:hi], cum: lvl.cum[lo:hi]}.pick(temperature, rng, nil) // 0 and 1 need no scratch
	} else {
		i = search(tbl.weights[s.n][lo:hi], rng)
	}
	p := int(lo) + i
	return int(lvl.toks[p]), lvl.succ[p]
}

// table returns the weight table for temperature, building it on first
// use, or nil at temperatures 0 and 1, which pick serves from the counts.
func (fz *frozenModel) table(temperature float64) *tempTable {
	if temperature <= 0 || temperature == 1 {
		return nil
	}
	bits := math.Float64bits(temperature)
	if t := fz.lookup(bits); t != nil {
		return t
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if t := fz.lookup(bits); t != nil {
		return t // another goroutine built it while this one waited
	}
	t := &tempTable{temp: bits, weights: make([][]float64, len(fz.levels))}
	var scratch []float64
	for n := range fz.levels {
		lvl := &fz.levels[n]
		w := make([]float64, 0, len(lvl.toks))
		for e := 0; e+1 < len(lvl.distOff); e++ {
			lo, hi := lvl.distOff[e], lvl.distOff[e+1]
			d := sortedDist{toks: lvl.toks[lo:hi], cum: lvl.cum[lo:hi]}
			// weights runs its cumulative pass over the whole slice it is
			// given, so each distribution goes through scratch
			scratch = d.weights(temperature, scratch[:0])
			w = append(w, scratch...)
		}
		t.weights[n] = w
	}
	next := append(slices.Clip(fz.tables()), t) // a new array: readers keep theirs
	fz.temps.Store(&next)
	return t
}

// tables returns the published weight tables.
func (fz *frozenModel) tables() []*tempTable {
	if ts := fz.temps.Load(); ts != nil {
		return *ts
	}
	return nil
}

func (fz *frozenModel) lookup(bits uint64) *tempTable {
	for _, t := range fz.tables() {
		if t.temp == bits {
			return t
		}
	}
	return nil
}

// ---- sampling entry points ---------------------------------------------------

func (m *Model) mapSample(history []int, temperature float64, rng *rand.Rand, scratch *[]float64) (int, bool) {
	d := m.contextDist(history)
	if d == nil {
		return 0, false
	}
	sd := sortedFromMap(d)
	return int(sd.toks[sd.pick(temperature, rng, scratch)]), true
}

// Generate appends up to maxTokens tokens continuing the prompt to dst and
// returns the extended slice. A frozen model resolves its temperature's
// weight table and the prompt's context once per call, then walks
// successors; into a dst with room for maxTokens more it allocates
// nothing.
func (m *Model) Generate(dst, prompt []int, maxTokens int, temperature float64, rng *rand.Rand) []int {
	if fz := m.frozen; fz != nil {
		tbl := fz.table(temperature)
		s := fz.longest(prompt)
		for i := 0; i < maxTokens && s.e >= 0; i++ {
			var tok int
			tok, s = fz.step(s, temperature, tbl, rng)
			dst = append(dst, tok)
		}
		return dst
	}
	scratch := scratchPool.Get().(*[]float64)
	defer scratchPool.Put(scratch)
	history := make([]int, len(prompt), len(prompt)+maxTokens)
	copy(history, prompt)
	for i := 0; i < maxTokens; i++ {
		tok, ok := m.mapSample(history, temperature, rng, scratch)
		if !ok {
			break
		}
		dst = append(dst, tok)
		history = append(history, tok)
	}
	return dst
}

// Perplexity computes the per-token perplexity of a sequence under the
// model with stupid backoff (unseen tokens cost a uniform floor over the
// seen vocabulary, the tokens of the empty-context distribution).
//
//vgencheck:oracle yardstick the fine-tuning tests measure the trained LMs with (TestFineTuningLowersVerilogPerplexity)
func (m *Model) Perplexity(tokens []int) float64 {
	vocab := 0
	if d := m.counts[0][""]; d != nil {
		vocab = len(d.next)
	}
	if len(tokens) == 0 || vocab == 0 {
		return math.Inf(1)
	}
	logSum := 0.0
	for i, tok := range tokens {
		var p float64
		hist := tokens[:i]
		d := m.contextDist(hist)
		if d != nil {
			if c, ok := d.next[tok]; ok && c > 0 {
				p = float64(c) / float64(d.total)
			}
		}
		if p == 0 {
			p = 0.5 / float64(vocab+d0total(d))
		}
		logSum += math.Log(p)
	}
	return math.Exp(-logSum / float64(len(tokens)))
}

func d0total(d *dist) int {
	if d == nil {
		return 1
	}
	return d.total
}
