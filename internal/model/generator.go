package model

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/bpe"
	"repro/internal/corpus"
	"repro/internal/ngram"
	"repro/internal/problems"
)

// CorpusKind selects the fine-tuning corpus (Section VI ablation).
type CorpusKind int

// Fine-tuning corpus choices.
const (
	GitHubOnly CorpusKind = iota
	GitHubPlusBooks
)

func (k CorpusKind) String() string {
	if k == GitHubPlusBooks {
		return "GitHub+Books"
	}
	return "GitHub"
}

// vocabSize is the BPE vocabulary the family's tokenizer trains to.
const vocabSize = 512

// tempDecayFunctional and tempDecayCompile control how Pass@ degrades
// away from the best temperature t=0.1 (Fig. 6 shows exponential decay).
const (
	tempDecayFunctional = 2.0
	tempDecayCompile    = 1.0
)

// Config tunes the simulated-LLM family.
type Config struct {
	Seed        int64
	Corpus      CorpusKind
	CorpusFiles int // synthetic GitHub corpus size; 0 = 300

	// MapSampler keeps the n-gram LMs on the mutable map-backed sampling
	// path instead of freezing them into packed samplers after training.
	// It is the differential tests' oracle, not a production knob: output
	// is byte-identical either way, and only the cost differs.
	MapSampler bool //vgencheck:oracle map-backed baseline the frozen samplers are checked against (TestFrozenFamilyMatchesMapFamily)
}

func (c Config) corpusFiles() int {
	if c.CorpusFiles <= 0 {
		return 300
	}
	return c.CorpusFiles
}

// Family is the full simulated model line-up sharing one tokenizer, one
// training corpus, and one variant bank.
type Family struct {
	cfg  Config
	tok  *bpe.Tokenizer
	bank *VariantBank

	verilogText []string // normalized fine-tuning stream
	naturalText []string // generic pre-training stream

	lmMu sync.Mutex        // guards the slot map only
	lms  map[lmKey]*lmSlot // per-key training runs under the slot's once

	gens map[genKey]*Generator // the catalog's evaluated (model, variant) pairs

	prompts sync.Map // promptKey -> []int: normalized+encoded prompt ids (read-only after store)
}

type genKey struct {
	id ID
	v  Variant
}

type promptKey struct {
	problem int
	level   problems.Level
}

// lmKey names one babble LM. Order 0 names the variant's count store,
// which every LM of the variant views.
type lmKey struct {
	order int
	v     Variant
}

type lmSlot struct {
	once sync.Once
	m    *ngram.Model
}

// NewFamily builds the shared substrate: runs the corpus pipeline, trains
// the tokenizer, and prepares lazy per-capacity language models.
func NewFamily(cfg Config) *Family {
	gh := corpus.GenerateGitHub(corpus.GitHubOptions{NumFiles: cfg.corpusFiles(), Seed: cfg.Seed})
	kept, _ := corpus.Curate(gh)
	var vtext []string
	for _, f := range kept {
		vtext = append(vtext, corpus.NormalizeForLM(f.Content))
	}
	if cfg.Corpus == GitHubPlusBooks {
		books := corpus.GenerateBooks(corpus.BookOptions{Seed: cfg.Seed + 1})
		for _, w := range corpus.ExtractWindows(books) {
			vtext = append(vtext, corpus.NormalizeForLM(w))
		}
	}

	natural := corpus.PretrainingText()

	f := &Family{
		cfg:         cfg,
		bank:        NewVariantBank(cfg.Seed),
		verilogText: vtext,
		naturalText: natural,
		lms:         map[lmKey]*lmSlot{},
		gens:        map[genKey]*Generator{},
	}
	f.tok = bpe.Train(append(append([]string{}, vtext...), natural...), vocabSize)
	for _, id := range IDs {
		spec := Lookup(id)
		f.gens[genKey{id, Pretrained}] = f.newGenerator(spec, Pretrained)
		if spec.HasFineTuned {
			f.gens[genKey{id, FineTuned}] = f.newGenerator(spec, FineTuned)
		}
	}
	return f
}

// CorpusDocs returns the number of fine-tuning documents after curation.
func (f *Family) CorpusDocs() int { return len(f.verilogText) }

// lm returns the order-k babble LM of variant v: a view of the variant's
// count store, frozen on its own unless the family keeps map samplers.
func (f *Family) lm(order int, v Variant) *ngram.Model {
	return f.slot(lmKey{order: order, v: v}, func() *ngram.Model {
		m := f.counts(v).View(order)
		if !f.cfg.MapSampler {
			m.Freeze()
		}
		return m
	})
}

// counts returns variant v's count store: an n-gram model of the catalog's
// highest NgramOrder trained on the variant's text. It is trained once and
// never sampled; an order-k model's counts are its first k levels, so
// every babble LM of the variant is a view of it.
func (f *Family) counts(v Variant) *ngram.Model {
	return f.slot(lmKey{v: v}, func() *ngram.Model {
		m := ngram.New(maxNgramOrder)
		texts := f.naturalText
		if v == FineTuned {
			texts = f.verilogText
		}
		var buf []int
		for _, t := range texts {
			buf = f.tok.EncodeInto(buf[:0], t)
			m.Train(buf)
		}
		return m
	})
}

// slot returns the model under key, building it with build once.
func (f *Family) slot(key lmKey, build func() *ngram.Model) *ngram.Model {
	f.lmMu.Lock()
	s, ok := f.lms[key]
	if !ok {
		s = &lmSlot{}
		f.lms[key] = s
	}
	f.lmMu.Unlock()
	s.once.Do(func() { s.m = build() })
	return s.m
}

// Prepare returns the set-up work that sampling from gs over ps would
// otherwise run lazily on first use: one task per distinct babble LM
// (NgramOrder, Variant), deduplicated across models, then one per
// problem's variant-bank entry. The tasks are independent and may run
// concurrently, in any order; each takes the same sync.Once its lazy path
// would, so preparing changes no sample. A variant's first LM task trains
// its count store (fine-tuned on the Verilog corpus, 3.5-14 ms, against
// under 1 ms pre-trained) and every task freezes its own view, so LMs come
// highest order first, fine-tuned before pre-trained at each order: the
// two count stores train concurrently, and the views freeze after them.
func (f *Family) Prepare(gs []*Generator, ps []*problems.Problem) []func() {
	var lms []lmKey
	for _, g := range gs {
		if k := (lmKey{order: g.Spec.NgramOrder, v: g.Variant}); !slices.Contains(lms, k) {
			lms = append(lms, k)
		}
	}
	pt := func(k lmKey) int {
		if k.v == FineTuned {
			return 0
		}
		return 1
	}
	slices.SortStableFunc(lms, func(a, b lmKey) int { return cmp.Or(b.order-a.order, pt(a)-pt(b)) })
	tasks := make([]func(), 0, len(lms)+len(ps))
	for _, k := range lms {
		tasks = append(tasks, func() { f.lm(k.order, k.v) })
	}
	for _, p := range ps {
		tasks = append(tasks, func() { f.bank.entry(p) })
	}
	return tasks
}

// promptIDs returns the babble prompt token window for (problem, level):
// the normalized prompt, BPE-encoded, clipped to its last 64 ids. Cached
// per family — normalization and encoding are identical for every sample
// of a cell, and the cached slice is only ever read.
func (f *Family) promptIDs(p *problems.Problem, level problems.Level) []int {
	key := promptKey{problem: p.Number, level: level}
	if ids, ok := f.prompts.Load(key); ok {
		return ids.([]int)
	}
	ids := f.tok.Encode(corpus.NormalizeForLM(p.Prompt(level)))
	if len(ids) > 64 {
		ids = ids[len(ids)-64:]
	}
	got, _ := f.prompts.LoadOrStore(key, ids)
	return got.([]int)
}

// Generator is one (model, variant) pair ready to produce completions.
type Generator struct {
	Spec    *Spec
	Variant Variant
	family  *Family

	// the pair's priors: its Table III row and Table IV matrix
	compile    diffTriple
	functional diffLevel
}

// newGenerator returns the generator for (spec, v), holding its priors.
func (f *Family) newGenerator(spec *Spec, v Variant) *Generator {
	return &Generator{Spec: spec, Variant: v, family: f,
		compile: compilePriors[spec.ID][v], functional: functionalPriors[spec.ID][v]}
}

// Generator returns the sampler for a model/variant pair; ok is false for
// variants the paper does not evaluate (fine-tuned code-davinci-002).
func (f *Family) Generator(id ID, v Variant) (*Generator, bool) {
	g, ok := f.gens[genKey{id, v}]
	return g, ok
}

// Sample is one produced completion with its simulated latency.
type Sample struct {
	Completion string
	Mechanism  string // "correct", "near-miss", "babble", "truncation"
	Latency    float64
}

// tempFactor implements the Fig. 6 exponential decay away from t=0.1.
func tempFactor(t, decay float64) float64 {
	d := t - 0.1
	if d < 0 {
		d = 0
	}
	return math.Exp(-decay * d)
}

// successProbs returns the effective functional and compile probabilities
// for one query.
func (g *Generator) successProbs(p *problems.Problem, level problems.Level, temperature float64) (pf, pc float64) {
	pf = g.functional[p.Difficulty][level]
	pf *= problemWeight(p.Number)
	pf *= tempFactor(temperature, tempDecayFunctional)
	if g.family.cfg.Corpus == GitHubPlusBooks && g.Variant == FineTuned {
		pf *= 1 + HeadlineBooksGain
	}
	if pf > 1 {
		pf = 1
	}
	pc = g.compile[p.Difficulty]
	pc *= tempFactor(temperature, tempDecayCompile)
	if pc < pf {
		pc = pf
	}
	if pc > 1 {
		pc = 1
	}
	return pf, pc
}

// Complete produces one completion for (problem, level) at the given
// temperature. The rng must be caller-seeded for reproducibility.
func (g *Generator) Complete(p *problems.Problem, level problems.Level, temperature float64, rng *rand.Rand) Sample {
	pf, pc := g.successProbs(p, level, temperature)
	lat := g.latency(rng)
	u := rng.Float64()
	switch {
	case u < pf:
		return Sample{Completion: g.family.bank.Correct(p, rng), Mechanism: "correct", Latency: lat}
	case u < pc:
		if body, ok := g.family.bank.NearMiss(p, rng); ok {
			return Sample{Completion: body, Mechanism: "near-miss", Latency: lat}
		}
		// no mutant available: fall through to a broken completion so the
		// sample cannot spuriously pass
		fallthrough
	default:
		if rng.Intn(2) == 0 {
			return Sample{Completion: g.family.bank.Broken(p, rng), Mechanism: "truncation", Latency: lat}
		}
		return Sample{Completion: g.babble(p, level, temperature, rng), Mechanism: "babble", Latency: lat}
	}
}

// SampleSeed derives the RNG seed for sample idx of a query from the
// query's base seed. splitmix64 over (base, idx) gives every sample an
// independent, well-dispersed stream, so sample idx draws the same
// completion whether it is produced serially or by any parallel worker —
// the determinism contract of the parallel evaluation engine (see
// DESIGN.md, "Determinism under parallelism").
func SampleSeed(base int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// CompleteAt produces sample idx of the query identified by baseSeed. The
// draw depends only on (baseSeed, idx), never on the other samples.
func (g *Generator) CompleteAt(p *problems.Problem, level problems.Level, temperature float64, idx int, baseSeed int64) Sample {
	return g.Complete(p, level, temperature, SampleRand(SampleSeed(baseSeed, idx)))
}

// CompleteN produces n completions (the paper's completions-per-prompt).
// Each sample gets its own hashed RNG stream; the result is byte-identical
// to evaluating the indices out of order or in parallel.
func (g *Generator) CompleteN(p *problems.Problem, level problems.Level, temperature float64, n int, baseSeed int64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = g.CompleteAt(p, level, temperature, i, baseSeed)
	}
	return out
}

// babble free-runs the n-gram LM from the prompt and truncates at the
// model's token budget — the paper's "does not even compile" bucket.
func (g *Generator) babble(p *problems.Problem, level problems.Level, temperature float64, rng *rand.Rand) string {
	lm := g.family.lm(g.Spec.NgramOrder, g.Variant)
	promptIDs := g.family.promptIDs(p, level)
	maxTok := g.Spec.MaxTokens
	if maxTok > 120 {
		maxTok = 120 // babble needs no more to be conclusively broken
	}
	st := temperature
	if st <= 0 {
		st = 0.1
	}
	var buf [120]int // the token budget above; Generate appends in place
	ids := lm.Generate(buf[:0], promptIDs, maxTok, st, rng)
	return g.family.tok.Decode("  ", ids, "\n")
}

// latency draws a simulated inference time around the Table IV column.
func (g *Generator) latency(rng *rand.Rand) float64 {
	base := g.Spec.InferenceSecondsPT
	if g.Variant == FineTuned {
		base = g.Spec.InferenceSecondsFT
	}
	return base * (0.9 + 0.2*rng.Float64())
}
