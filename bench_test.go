// Package repro benchmarks regenerate every table and figure of the paper
// and time the substrate components. One benchmark exists per paper
// artifact (Tables I-IV, Figs. 6-7, the headline aggregates, the corpus
// ablation) plus ablation benches for the design choices called out in
// DESIGN.md Section 5. Run:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report calibration metrics (measured value for a
// pinned cell) alongside timing so a bench run doubles as a regression
// check against the paper's numbers.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bpe"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/ngram"
	"repro/internal/problems"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
	"repro/internal/vnum"
	"repro/internal/wire"
)

// shared harness: built once; the eval cache makes repeated table
// regeneration cheap, which is also how the real tool amortizes sweeps.
var (
	benchOnce sync.Once
	benchH    *harness.Harness
	benchAlt  *harness.Harness // GitHub+books family for the ablation bench
)

func benchHarness() *harness.Harness {
	benchOnce.Do(func() {
		opts := harness.Options{
			Seed:        123,
			CorpusFiles: 60,
			Sweep:       eval.SweepOptions{N: 5, Temperatures: []float64{0.1, 0.5, 1.0}},
		}
		var err error
		benchH, err = harness.New(opts)
		if err != nil {
			panic(err)
		}
		alt := opts
		alt.Corpus = model.GitHubPlusBooks
		benchAlt, err = harness.New(alt)
		if err != nil {
			panic(err)
		}
	})
	return benchH
}

// ---- one benchmark per paper artifact -------------------------------------

func BenchmarkTableI(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.TableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.TableII()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = h.TableIII()
	}
	_ = out
	mv := eval.ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	got := eval.TableIIICell(h.Runner, mv, problems.Basic, h.Opts)
	b.ReportMetric(got, "16BFT-basic-compile")
	b.ReportMetric(0.942, "paper-value")
}

func BenchmarkTableIV(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = h.TableIV()
	}
	_ = out
	mv := eval.ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	got := eval.TableIVCell(h.Runner, mv, problems.Basic, problems.LevelLow, h.Opts)
	b.ReportMetric(got, "16BFT-basicL-pass")
	b.ReportMetric(0.745, "paper-value")
}

func BenchmarkFigure6(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.Figure6()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.Figure7()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	var hl eval.Headline
	for i := 0; i < b.N; i++ {
		hl = eval.ComputeHeadline(h.Runner, h.Opts)
	}
	b.ReportMetric(hl.FunctionalFT, "FT-functional")
	b.ReportMetric(model.HeadlineFunctionalFT, "paper-value")
}

func BenchmarkAblation(b *testing.B) {
	h := benchHarness()
	mv := eval.ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	b.ResetTimer()
	var gh, books float64
	for i := 0; i < b.N; i++ {
		gh = eval.Aggregate(h.Runner, mv, h.Opts).PassRate()
		books = eval.Aggregate(benchAlt.Runner, mv, h.Opts).PassRate()
	}
	if gh > 0 {
		b.ReportMetric(books/gh-1, "books-gain")
		b.ReportMetric(model.HeadlineBooksGain, "paper-value")
	}
}

func BenchmarkCorpusPipeline(b *testing.B) {
	files := corpus.GenerateGitHub(corpus.DefaultGitHubOptions(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, _ := corpus.Curate(files, corpus.FilterOptions{})
		if len(kept) == 0 {
			b.Fatal("nothing kept")
		}
	}
}

func BenchmarkFailureGallery(b *testing.B) {
	h := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.FailureGallery()) == 0 {
			b.Fatal("empty gallery")
		}
	}
}

// ---- design-choice ablation benches (DESIGN.md Section 5) ------------------

func BenchmarkMinHashSig64(b *testing.B)  { benchMinHash(b, 64) }
func BenchmarkMinHashSig256(b *testing.B) { benchMinHash(b, 256) }

func benchMinHash(b *testing.B, size int) {
	mh := corpus.NewMinHash(size)
	doc := corpus.GenerateModule(rand.New(rand.NewSource(1)))
	set := corpus.Shingles(doc, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mh.Signature(set)
	}
}

func BenchmarkVnumAdd64(b *testing.B)  { benchVnumAdd(b, 64) }
func BenchmarkVnumAdd512(b *testing.B) { benchVnumAdd(b, 512) }

func benchVnumAdd(b *testing.B, width int) {
	x := vnum.FromUint64(width, 0xDEADBEEF)
	y := vnum.FromUint64(width, 0x12345678)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = vnum.Add(x, y)
	}
}

// BenchmarkVnumHexString times %h rendering of a 32-bit value with one
// mixed-unknown nibble, the shape of a $display of a partly driven bus.
func BenchmarkVnumHexString(b *testing.B) {
	v := vnum.FromBitString("1010_0101_1x01_0011_1111_0000_1100_0110")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(v.HexString()) != 8 {
			b.Fatal("wrong digit count")
		}
	}
}

func BenchmarkVnumMul64(b *testing.B) {
	x := vnum.FromUint64(64, 0xDEADBEEF)
	y := vnum.FromUint64(64, 0x1234567)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vnum.Mul(x, y)
	}
}

func BenchmarkNgramOrder2(b *testing.B) { benchNgram(b, 2) }
func BenchmarkNgramOrder5(b *testing.B) { benchNgram(b, 5) }

func benchNgram(b *testing.B, order int) {
	m := ngram.New(order)
	rng := rand.New(rand.NewSource(2))
	data := make([]int, 5000)
	for i := range data {
		data[i] = rng.Intn(64)
	}
	m.Train(data)
	m.Freeze() // the production sampler; BenchmarkMapSample covers the baseline
	b.ResetTimer()
	srng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		m.Generate(data[:4], 50, 0.5, srng)
	}
}

// BenchmarkEncode vs BenchmarkEncodeInto is the tokenizer-front-end
// ablation: the allocating convenience entry point against the
// reusable-buffer path the generation hot loops use.
func benchEncodeDocs() (*bpe.Tokenizer, []string) {
	docs := []string{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		docs = append(docs, corpus.NormalizeForLM(corpus.GenerateModule(rng)))
	}
	return bpe.Train(docs, 512), docs
}

func BenchmarkEncode(b *testing.B) {
	tok, docs := benchEncodeDocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Encode(docs[i%len(docs)])
	}
}

func BenchmarkEncodeInto(b *testing.B) {
	tok, docs := benchEncodeDocs()
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tok.EncodeInto(buf[:0], docs[i%len(docs)])
	}
	_ = buf
}

// BenchmarkFrozenSample vs BenchmarkMapSample is the frozen-sampler
// ablation (DESIGN.md Section 8): the same babble-shaped generation load
// — order-4 LM over BPE-encoded normalized modules, 120 tokens per
// completion at a mid sweep temperature — through the packed immutable
// sampler and through the map-of-maps baseline.
func benchSampler(b *testing.B, freeze bool) {
	tok, docs := benchEncodeDocs()
	m := ngram.New(4)
	var buf []int
	for _, d := range docs {
		buf = tok.EncodeInto(buf[:0], d)
		m.Train(buf)
	}
	if freeze {
		m.Freeze()
	}
	prompt := tok.Encode(docs[0])
	if len(prompt) > 64 {
		prompt = prompt[len(prompt)-64:]
	}
	b.ResetTimer()
	srng := rand.New(rand.NewSource(10))
	for i := 0; i < b.N; i++ {
		m.Generate(prompt, 120, 0.7, srng)
	}
}

func BenchmarkFrozenSample(b *testing.B) { benchSampler(b, true) }
func BenchmarkMapSample(b *testing.B)    { benchSampler(b, false) }

// BenchmarkSampleRand vs BenchmarkMathRandSeed is the per-sample seeding
// cost (DESIGN.md Section 8.1): constructing one sample's generator from
// its SampleSeed and drawing the first value, through model.SampleRand
// and through the rand.New(rand.NewSource(...)) it reproduces.
func BenchmarkSampleRand(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += model.SampleRand(model.SampleSeed(1, i)).Float64()
	}
	_ = sink
}

func BenchmarkMathRandSeed(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rand.New(rand.NewSource(model.SampleSeed(1, i))).Float64()
	}
	_ = sink
}

func BenchmarkBPETrainVocab512(b *testing.B) {
	docs := []string{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		docs = append(docs, corpus.NormalizeForLM(corpus.GenerateModule(rng)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bpe.Train(docs, 512)
	}
}

func BenchmarkParseReference(b *testing.B) {
	src := problems.ByNumber(17).ReferenceSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vlog.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePrefixed times the evaluation path's parse of the same
// source as BenchmarkParseReference: the prompt's module header comes
// from a LexPrefix made once, and only the completion is lexed and
// parsed.
func BenchmarkParsePrefixed(b *testing.B) {
	p := problems.ByNumber(17)
	pre := vlog.LexPrefix(p.Prompt(problems.LevelLow))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vlog.ParsePrefixed(pre, p.RefBody); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileCheck(b *testing.B) {
	src := problems.ByNumber(17).ReferenceSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := vlog.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := elab.CompileCheck(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerRegions times a full test-bench simulation — the
// stratified event queue under a realistic clocked workload.
func BenchmarkSchedulerRegions(b *testing.B) {
	p := problems.ByNumber(6)
	src := p.ReferenceSource() + "\n" + p.Testbench
	f, err := vlog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := elab.Elaborate(f, "tb", elab.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.New(d, sim.Options{}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if !problems.PassVerdict(res.Output) {
			b.Fatal("reference failed")
		}
	}
}

// BenchmarkProcessHandoff times the scheduler-process switch: two
// initial blocks trade #1 delays for 10,000 events in total, so nearly
// all the work is suspending and resuming processes.
func BenchmarkProcessHandoff(b *testing.B) {
	f, err := vlog.Parse(`module m;
  initial repeat (5000) #1;
  initial repeat (5000) #1;
endmodule`)
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.New(d, sim.Options{}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Time != 5000 {
			b.Fatalf("ended at time %d, want 5000", res.Time)
		}
	}
}

// BenchmarkFullPipelineEvaluation times one completion through the whole
// compile + simulate verdict path (the per-sample cost of Tables III/IV).
func BenchmarkFullPipelineEvaluation(b *testing.B) {
	p := problems.ByNumber(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := eval.Evaluate(p, problems.LevelHigh, p.RefBody)
		if !o.Passes {
			b.Fatal("reference failed")
		}
	}
}

// BenchmarkEvaluateColdCompile times a candidate the shared design cache
// has never seen: parse, compile-check, skeleton splice, plan
// compilation, simulator construction, and the run itself — the
// first-sample cost of a sweep cell (DESIGN.md Section 15). A unique
// comment line keeps every iteration's source distinct.
func BenchmarkEvaluateColdCompile(b *testing.B) {
	p := problems.ByNumber(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := eval.Evaluate(p, problems.LevelHigh, fmt.Sprintf("  // cold %d\n", i)+p.RefBody)
		if !o.Passes {
			b.Fatal("reference failed")
		}
	}
}

// BenchmarkEvaluateWarmCompile times the steady state the shared tiers
// buy: the same candidate re-evaluated with the spliced design, compiled
// plans, and a pooled simulator all resident, leaving simulation itself
// as the whole per-call cost. The cold/warm delta is the amortized
// compile work.
func BenchmarkEvaluateWarmCompile(b *testing.B) {
	p := problems.ByNumber(15)
	if !eval.Evaluate(p, problems.LevelHigh, p.RefBody).Passes {
		b.Fatal("reference failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eval.Evaluate(p, problems.LevelHigh, p.RefBody).Passes {
			b.Fatal("reference failed")
		}
	}
}

// ---- compiled expression plan ablation (DESIGN.md Section 7) ---------------

// benchSimEngine times the same clocked test-bench simulation as
// BenchmarkSchedulerRegions under one expression engine: compiled plans
// (the default) vs the AST-walking interpreter. The pair is the ablation
// for the plan compiler — the delta is pure expression-evaluation cost,
// since parse happens outside the loop and both engines share the
// elaborator and scheduler.
func benchSimEngine(b *testing.B, interpret bool) {
	p := problems.ByNumber(6)
	src := p.ReferenceSource() + "\n" + p.Testbench
	f, err := vlog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := elab.Elaborate(f, "tb", elab.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.New(d, sim.Options{Interpret: interpret}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if !problems.PassVerdict(res.Output) {
			b.Fatal("reference failed")
		}
	}
}

func BenchmarkCompiledEval(b *testing.B)    { benchSimEngine(b, false) }
func BenchmarkInterpretedEval(b *testing.B) { benchSimEngine(b, true) }

// ---- parallel evaluation engine benches (DESIGN.md Section 6) --------------

// resetSharedState drops the process-wide shared compile tiers (design
// cache, plan cache, pooled simulators) and runs the collector twice, so
// a sweep-scale bench measures its own workload instead of paying GC
// mark cost for state earlier benches retained in the same process. A
// one-byte budget evicts everything the never-newest policy can release
// and rebuilds the plan cache empty; zero restores the defaults.
func resetSharedState(b *testing.B) {
	b.Helper()
	eval.SetPlanCacheBytes(1)
	eval.SetPlanCacheBytes(0)
	runtime.GC()
	runtime.GC()
}

// benchTableIIICold regenerates Table III on a fresh Runner per iteration —
// a cold outcome cache, so every sample pays the real compile+simulate
// cost — at the given worker-pool width. The family (corpus, tokenizer,
// variant bank) is shared: that is the engine's steady state, where sweep
// throughput is the bottleneck.
func benchTableIIICold(b *testing.B, workers int) {
	h := benchHarness()
	resetSharedState(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(h.Runner.Backend, 123)
		r.Workers = workers
		hh := &harness.Harness{Runner: r, Opts: h.Opts, Seed: 123}
		out = hh.TableIII()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkTableIIISerial(b *testing.B)   { benchTableIIICold(b, 1) }
func BenchmarkTableIIIParallel(b *testing.B) { benchTableIIICold(b, 8) }

// benchEvaluateBatch times the raw fan-out: every (problem, level) cell of
// the benchmark at one temperature, cold outcome cache per iteration.
func benchEvaluateBatch(b *testing.B, workers int) {
	h := benchHarness()
	var qs []eval.Query
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			qs = append(qs, eval.Query{
				Model: model.CodeGen16B, Variant: model.FineTuned,
				Problem: p, Level: l, Temperature: 0.5, N: 4,
			})
		}
	}
	resetSharedState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(h.Runner.Backend, 123)
		r.Workers = workers
		if len(r.EvaluateBatch(qs)) != len(qs) {
			b.Fatal("batch result length mismatch")
		}
	}
}

func BenchmarkEvaluateBatchSerial(b *testing.B) { benchEvaluateBatch(b, 1) }
func BenchmarkEvaluateBatch(b *testing.B)       { benchEvaluateBatch(b, 8) }

// ---- backend-tagged sweep throughput (DESIGN.md Section 10) ----------------

// sweepQueries is the fixed query set the backend-tagged throughput
// benches fan out: every (problem, level) cell at one temperature.
func sweepQueries() []eval.Query {
	var qs []eval.Query
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			qs = append(qs, eval.Query{
				Model: model.CodeGen16B, Variant: model.FineTuned,
				Problem: p, Level: l, Temperature: 0.5, N: 4,
			})
		}
	}
	return qs
}

// pinSharedBudget shrinks the shared compile tiers to one resident
// entry for the bench's duration and restores the defaults on cleanup.
// Warm-outcome-cache rows measure backend or transport cost — the
// compile caches never serve them past the first iteration, so resident
// compiled artifacts would only add GC mark noise to the row.
func pinSharedBudget(b *testing.B) {
	b.Helper()
	eval.SetPlanCacheBytes(1)
	b.Cleanup(func() { eval.SetPlanCacheBytes(0) })
	runtime.GC()
	runtime.GC()
}

// benchSweepBackend times one full sweep of sweepQueries through the
// shared runner (warm outcome cache after the first iteration, like a
// long-lived server): what remains is per-backend completion cost plus
// engine overhead, the per-backend rows bench-compare tracks so backend
// and shard/merge regressions are gated like hot-path ns/op.
func benchSweepBackend(b *testing.B, backend gen.Backend) {
	pinSharedBudget(b)
	r := eval.NewRunner(backend, 123)
	r.Workers = 8
	qs := sweepQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.EvaluateBatch(qs)) != len(qs) {
			b.Fatal("batch result length mismatch")
		}
	}
}

// benchSweepPlans is the plan-sharing ablation: the family sweep on a
// cold outcome cache per iteration, with the process-wide design/plan
// tiers either engaged (the default) or bypassed (UnsharedPlans, the
// differential baseline). A warm-up sweep first fills the shared tiers so
// plans=shared measures the steady state, not first-touch compilation.
func benchSweepPlans(b *testing.B, backend gen.Backend, unshared bool) {
	resetSharedState(b)
	qs := sweepQueries()
	warm := eval.NewRunner(backend, 123)
	warm.Workers = 8
	warm.UnsharedPlans = unshared
	warm.EvaluateBatch(qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(backend, 123)
		r.Workers = 8
		r.UnsharedPlans = unshared
		if len(r.EvaluateBatch(qs)) != len(qs) {
			b.Fatal("batch result length mismatch")
		}
	}
}

func BenchmarkSweepThroughput(b *testing.B) {
	fam := benchHarness().Runner.Backend
	b.Run("backend=family", func(b *testing.B) { benchSweepBackend(b, fam) })
	// plan-sharing rows (DESIGN.md Section 15): byte-identical sweeps,
	// fresh-compile-per-sample vs shared compiled artifacts.
	b.Run("plans=fresh", func(b *testing.B) { benchSweepPlans(b, fam, true) })
	b.Run("plans=shared", func(b *testing.B) { benchSweepPlans(b, fam, false) })
	b.Run("backend=mutant", func(b *testing.B) { benchSweepBackend(b, gen.NewMutant()) })
	b.Run("backend=replay", func(b *testing.B) {
		// record the family sweep in memory, then serve it back frozen
		var buf bytes.Buffer
		rec := eval.NewRunner(gen.NewRecorder(fam, &buf), 123)
		rec.EvaluateBatch(sweepQueries())
		rp, err := gen.NewReplay(&buf)
		if err != nil {
			b.Fatal(err)
		}
		benchSweepBackend(b, rp)
	})
	// store rows (DESIGN.md Section 14): the same family sweep through the
	// persistent result store. store=cold pays full compute plus
	// persistence into a fresh store; store=warm reopens the populated
	// store per iteration and serves every cell from disk without one
	// backend call. The cold/warm ratio is the cache's whole point, so
	// both rows are pinned in bench-compare.
	b.Run("store=cold", func(b *testing.B) {
		resetSharedState(b)
		qs := sweepQueries()
		id := store.Identity{Backend: fam.Describe(), Seed: 123}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			r := eval.NewRunner(fam, 123)
			r.Workers = 8
			src := store.Cached(r, st, id)
			if len(src.Cells(qs)) != len(qs) {
				b.Fatal("cell result length mismatch")
			}
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store=warm", func(b *testing.B) {
		resetSharedState(b)
		qs := sweepQueries()
		id := store.Identity{Backend: fam.Describe(), Seed: 123}
		dir := b.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		r := eval.NewRunner(fam, 123)
		r.Workers = 8
		if src := store.Cached(r, st, id); len(src.Cells(qs)) != len(qs) || src.Err() != nil {
			b.Fatal("populating sweep failed")
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			src := store.Cached(eval.NewRunner(fam, 123), st, id)
			if len(src.Cells(qs)) != len(qs) {
				b.Fatal("cell result length mismatch")
			}
			if stats := src.Stats(); stats.Misses != 0 {
				b.Fatalf("warm sweep missed %d cells", stats.Misses)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// remote rows: the same family sweep through the full wire stack
	// (JSON encode, loopback HTTP, JSON decode) at the three pinned batch
	// sizes. Compared against backend=family, the delta is the transport
	// tax; across batch sizes, the amortization curve.
	for _, batch := range []int{1, 8, 32} {
		batch := batch
		b.Run(fmt.Sprintf("backend=remote/batch=%d", batch), func(b *testing.B) {
			pinSharedBudget(b)
			srv := remote.NewServer(remote.NewHandler(fam, remote.ServerOptions{}))
			url, err := srv.Start(context.Background(), "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			rb, err := remote.NewBackend(remote.Config{Endpoint: url, Timeout: 30 * time.Second, Seed: 123})
			if err != nil {
				b.Fatal(err)
			}
			r := eval.NewRunner(rb, 123)
			r.Workers = 8
			r.BatchSize = batch
			qs := sweepQueries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(r.EvaluateBatch(qs)) != len(qs) {
					b.Fatal("batch result length mismatch")
				}
			}
			b.StopTimer()
			if fails := r.Failures(); len(fails) != 0 {
				b.Fatalf("loopback sweep degraded %d cells", len(fails))
			}
		})
	}
}

// BenchmarkShardMerge times the cross-process tax of a distributed sweep:
// decoding four wire shard files and merging them into one result set.
// Pinned in bench-compare so serialization overhead regressions gate like
// the evaluation hot paths.
func BenchmarkShardMerge(b *testing.B) {
	plan := eval.NewPlan()
	for _, q := range sweepQueries() {
		if err := plan.Add(q); err != nil {
			b.Fatal(err)
		}
	}
	const shards = 4
	files := make([][]byte, shards)
	for i := 0; i < shards; i++ {
		sub, err := plan.Shard(i, shards)
		if err != nil {
			b.Fatal(err)
		}
		rs := eval.NewResultSet()
		for j, c := range sub.Coords() {
			rs.Put(c, eval.CellStats{Samples: c.N, Compiled: c.N, Passed: j % 2, SumLat: 1.25 * float64(j)})
		}
		var buf bytes.Buffer
		m := wire.Meta{Backend: "bench", Seed: 123, Shard: i, Shards: shards}
		if err := wire.WriteResults(&buf, m, rs); err != nil {
			b.Fatal(err)
		}
		files[i] = buf.Bytes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := make([]wire.Shard, shards)
		for j, f := range files {
			sh, err := wire.ReadResults(bytes.NewReader(f))
			if err != nil {
				b.Fatal(err)
			}
			in[j] = sh
		}
		merged, _, err := wire.Merge(in)
		if err != nil {
			b.Fatal(err)
		}
		if merged.Len() != plan.Len() {
			b.Fatal("merge dropped cells")
		}
	}
}

// BenchmarkStoreLookup times one in-memory cell probe of an opened store
// — the per-cell cost a warm sweep pays instead of a backend completion.
// Pinned in bench-compare alongside the store sweep rows.
func BenchmarkStoreLookup(b *testing.B) {
	plan := eval.NewPlan()
	for _, q := range sweepQueries() {
		if err := plan.Add(q); err != nil {
			b.Fatal(err)
		}
	}
	coords := plan.Coords()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	id := store.Identity{Backend: "bench", Seed: 123}
	for j, c := range coords {
		cs := eval.CellStats{Samples: c.N, Compiled: c.N, Passed: j % 2, SumLat: 1.25 * float64(j)}
		if err := st.Put(id, c, cs); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(id, coords[i%len(coords)]); !ok {
			b.Fatal("resident cell missed")
		}
	}
}

// BenchmarkStoreOpen times store.Open over a four-identity store holding
// every sweepQueries coordinate at each paper temperature: the segment
// replay a warm -store run pays before it serves its first cell.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	cells := 0
	for seed := int64(1); seed <= 4; seed++ {
		id := store.Identity{Backend: "family: simulated n-gram line-up (60 fine-tuning docs)", Seed: seed}
		for _, temp := range eval.Temperatures {
			for j, q := range sweepQueries() {
				q.Temperature = temp
				c := q.Coord()
				cs := eval.CellStats{Samples: c.N, Compiled: c.N - j%2, Passed: j % 3, SumLat: 0.0625 * float64(j+1) * temp}
				if err := st.Put(id, c, cs); err != nil {
					b.Fatal(err)
				}
				cells++
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != cells {
			b.Fatalf("reopened store holds %d cells, wrote %d", s.Len(), cells)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
