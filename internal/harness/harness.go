// Package harness regenerates every table and figure of the paper's
// evaluation section as formatted text plus machine-readable series, and
// reports paper-vs-measured deltas for EXPERIMENTS.md. See DESIGN.md's
// per-experiment index for the mapping from paper artifact to harness
// method.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/problems"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// Harness drives one evaluation configuration. The evaluation pool width
// lives on the Runner (Runner.Workers), and the completion source is
// whatever gen.Backend the Runner wraps.
//
// Every cell-consuming renderer draws per-query stats through one
// eval.CellSource: the Runner when the harness is attached to a live
// backend, or any other source — merged shard results (FromResults), a
// plan recorder (PlanFor) — when it is not. Renderers that need more than
// cells (Ablation builds whole new families, CorpusStats runs the corpus
// pipeline) still require a live configuration.
type Harness struct {
	Runner *eval.Runner

	// Source overrides the Runner as the cell provider when non-nil. A
	// harness over merged shard results has a Source and no Runner.
	Source eval.CellSource

	Opts eval.SweepOptions
	Seed int64

	// CorpusFiles is the synthetic GitHub corpus size the families
	// Ablation builds are trained on; 0 = the family default. A
	// framework sets it to its own sweep's size.
	CorpusFiles int
}

// src is the cell provider renderers read through.
func (h *Harness) src() eval.CellSource {
	if h.Source != nil {
		return h.Source
	}
	return h.Runner
}

// FromResults builds a render-only harness over per-cell stats — merged
// shard results, typically. Sweep options must match the run that
// produced the cells, since they shape which cells the renderers request.
func FromResults(rs *eval.ResultSet, opts eval.SweepOptions) *Harness {
	return &Harness{Source: rs, Opts: opts}
}

// Renderer is one named artifact renderer. Cell marks artifacts whose
// output is a pure function of per-cell stats — the ones a sharded sweep
// can compute and a merged result set can render offline.
type Renderer struct {
	Name   string
	Cell   bool
	Desc   string
	Render func(*Harness) string
}

// renderers is the single registry of artifact renderers, in render
// order. CellExperiments, Select, Print, PlanFor, and ExperimentIndex
// all derive from it, so the list, the planner, and the CLIs cannot
// drift.
var renderers = []Renderer{
	{"table1", false, "baseline LLM architectures", (*Harness).TableI},
	{"table2", false, "problem set", (*Harness).TableII},
	{"table3", true, "compile-rate matrix (best temperature)", (*Harness).TableIII},
	{"table4", true, "functional-pass matrix + inference time", (*Harness).TableIV},
	{"fig6", true, "pass rate vs temperature and vs completions/prompt", (*Harness).Figure6},
	{"fig7", true, "pass rate vs difficulty and vs description level", (*Harness).Figure7},
	{"headline", true, "Sections VI-VII aggregates", (*Harness).HeadlineReport},
	{"ablation", false, "GitHub vs GitHub+books fine-tuning corpus", (*Harness).Ablation},
	{"corpus", false, "Section III-A pipeline statistics", (*Harness).CorpusStats},
	{"gallery", false, "near-miss failure modes", (*Harness).FailureGallery},
	{"passk", true, "unbiased pass@k estimator table (extension)", (*Harness).PassAtKTable},
	{"problems", true, "per-problem breakdown for CodeGen-16B FT (Section VI)", (*Harness).ProblemBreakdown},
	{"lint", false, "synthesizability findings on references vs mutants (extension)", (*Harness).LintReport},
}

// Renderers lists every artifact renderer in render order.
func Renderers() []Renderer { return append([]Renderer(nil), renderers...) }

// CellExperiments lists the cell-based artifact names, in render order.
func CellExperiments() []string {
	var out []string
	for _, r := range renderers {
		if r.Cell {
			out = append(out, r.Name)
		}
	}
	return out
}

// Select returns the renderers experiment names, in registry order: one
// artifact by name, or "all" for every artifact. cellOnly restricts the
// selection to cell-based artifacts, the only ones merged results can
// compute: "all" then means every cell-based artifact, and a non-cell
// name is an error. An unknown name is always an error.
func Select(experiment string, cellOnly bool) ([]Renderer, error) {
	var out []Renderer
	for _, r := range renderers {
		if experiment != "all" && experiment != r.Name {
			continue
		}
		if cellOnly && !r.Cell {
			if experiment == "all" {
				continue
			}
			return nil, fmt.Errorf("harness: %q is not a cell-based artifact (have %v)", experiment, CellExperiments())
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: unknown experiment %q", experiment)
	}
	return out, nil
}

// Print writes the artifacts experiment selects to w, each followed by a
// blank line: cell-based artifacts render from cells, the others from
// live. A nil live means only cells exist, as after a merge, and
// restricts the selection to cell-based artifacts (see Select).
func Print(w io.Writer, experiment string, cells, live *Harness) error {
	sel, err := Select(experiment, live == nil)
	if err != nil {
		return err
	}
	for _, r := range sel {
		h := cells
		if !r.Cell {
			h = live
		}
		if _, err := fmt.Fprintln(w, r.Render(h)); err != nil {
			return err
		}
	}
	return nil
}

// PlanFor enumerates every evaluation cell the named cell-based artifacts
// consume, by running their renderers against a recording source. The
// plan therefore can never drift from the render path: whatever cells a
// renderer asks for are exactly the cells planned. "all" expands to every
// cell-based artifact.
func (h *Harness) PlanFor(experiments []string) (*eval.Plan, error) {
	plan := eval.NewPlan()
	shadow := &Harness{Source: eval.PlanSource(plan), Opts: h.Opts, Seed: h.Seed}
	for _, e := range experiments {
		sel, err := Select(e, true)
		if err != nil {
			return nil, err
		}
		for _, r := range sel {
			_ = r.Render(shadow)
		}
	}
	if err := plan.Err(); err != nil {
		return nil, err
	}
	return plan, nil
}

// paperVariantOrder lists Tables III/IV rows in the paper's order.
var paperVariantOrder = []model.ID{
	model.Megatron355M, model.CodeGen2B, model.CodeGen6B,
	model.J1Large7B, model.CodeGen16B, model.Codex,
}

func variantRows() []eval.ModelVariant {
	var rows []eval.ModelVariant
	for _, id := range paperVariantOrder {
		rows = append(rows, eval.ModelVariant{Model: id, Variant: model.Pretrained})
		if model.Lookup(id).HasFineTuned {
			rows = append(rows, eval.ModelVariant{Model: id, Variant: model.FineTuned})
		}
	}
	return rows
}

// TableI renders the baseline LLM architecture catalog.
func (h *Harness) TableI() string {
	var sb strings.Builder
	sb.WriteString("Table I: Baseline LLM architectures\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Model\tParams\tLayers\tHeads\tEmbed\tContext\tPre-training data")
	for _, id := range paperVariantOrder {
		s := model.Lookup(id)
		layers, heads, embed := "NA", "NA", "NA"
		if s.Layers > 0 {
			layers = fmt.Sprintf("%d", s.Layers)
			heads = fmt.Sprintf("%d", s.Heads)
			embed = fmt.Sprintf("%d", s.Embed)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\t%s\n",
			s.ID, s.Params, layers, heads, embed, s.Context, s.PretrainData)
	}
	w.Flush()
	return sb.String()
}

// TableII renders the problem set.
func (h *Harness) TableII() string {
	var sb strings.Builder
	sb.WriteString("Table II: Problem set\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Prob.#\tDifficulty\tDescription")
	for _, p := range problems.All() {
		fmt.Fprintf(w, "%d\t%s\t%s\n", p.Number, p.Difficulty, p.Description)
	}
	w.Flush()
	return sb.String()
}

// TableIIIData computes the compile-rate matrix: row per variant, one value
// per difficulty.
func (h *Harness) TableIIIData() map[eval.ModelVariant][3]float64 {
	out := map[eval.ModelVariant][3]float64{}
	for _, mv := range variantRows() {
		var row [3]float64
		for i, d := range problems.Difficulties {
			row[i] = eval.TableIIICell(h.src(), mv, d, h.Opts)
		}
		out[mv] = row
	}
	return out
}

// TableIII renders the compile-rate matrix with paper values alongside.
func (h *Harness) TableIII() string {
	data := h.TableIIIData()
	var sb strings.Builder
	sb.WriteString("Table III: Pass@(scenario*n), n=10, compiling completions (measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Model\tType\tBasic\tIntermediate\tAdvanced")
	for _, mv := range variantRows() {
		row := data[mv]
		fmt.Fprintf(w, "%s\t%s", mv.Model, mv.Variant)
		for i, d := range problems.Difficulties {
			fmt.Fprintf(w, "\t%.3f|%.3f", row[i], model.CompilePrior(mv.Model, mv.Variant, d))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return sb.String()
}

// TableIVData computes the functional matrix: per variant, difficulty,
// level, plus the latency column.
type TableIVRow struct {
	Variant eval.ModelVariant
	Latency float64
	Cells   [3][3]float64 // [difficulty][level]
}

// TableIVData computes every Table IV row.
func (h *Harness) TableIVData() []TableIVRow {
	var rows []TableIVRow
	for _, mv := range variantRows() {
		row := TableIVRow{Variant: mv, Latency: eval.InferenceTime(h.src(), mv, h.Opts)}
		for di, d := range problems.Difficulties {
			for li, l := range problems.Levels {
				row.Cells[di][li] = eval.TableIVCell(h.src(), mv, d, l, h.Opts)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// TableIV renders the functional-pass matrix with paper values alongside.
func (h *Harness) TableIV() string {
	var sb strings.Builder
	sb.WriteString("Table IV: Pass@(scenario*n), n=10, test-bench-passing completions (measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Model\tType\tInf.(s)\tBasic L\tBasic M\tBasic H\tInt L\tInt M\tInt H\tAdv L\tAdv M\tAdv H")
	for _, row := range h.TableIVData() {
		mv := row.Variant
		fmt.Fprintf(w, "%s\t%s\t%.3f", mv.Model, mv.Variant, row.Latency)
		for di, d := range problems.Difficulties {
			for li, l := range problems.Levels {
				fmt.Fprintf(w, "\t%.3f|%.3f", row.Cells[di][li],
					model.FunctionalPrior(mv.Model, mv.Variant, d, l))
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return sb.String()
}

// figureVariants are the lines plotted in Figs. 6 and 7: fine-tuned models
// plus pre-trained codex.
func figureVariants() []eval.ModelVariant {
	var out []eval.ModelVariant
	for _, id := range paperVariantOrder {
		if model.Lookup(id).HasFineTuned {
			out = append(out, eval.ModelVariant{Model: id, Variant: model.FineTuned})
		} else {
			out = append(out, eval.ModelVariant{Model: id, Variant: model.Pretrained})
		}
	}
	return out
}

// Figure6 renders both panels as CSV series: pass rate vs temperature and
// pass rate vs completions-per-prompt.
func (h *Harness) Figure6() string {
	temps := h.Opts.Temperatures
	if len(temps) == 0 {
		temps = eval.Temperatures
	}
	var sb strings.Builder
	sb.WriteString("Figure 6 (left): Pass@(scenario*n) vs temperature\n")
	sb.WriteString("model,variant")
	for _, t := range temps {
		fmt.Fprintf(&sb, ",t=%.1f", t)
	}
	sb.WriteString("\n")
	for _, mv := range figureVariants() {
		series := eval.TemperatureSeries(h.src(), mv, h.Opts)
		fmt.Fprintf(&sb, "%s,%s", mv.Model, mv.Variant)
		for _, v := range series {
			fmt.Fprintf(&sb, ",%.3f", v)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\nFigure 6 (right): Pass@(scenario*n) vs completions per prompt\n")
	sb.WriteString("model,variant,n=1,n=10,n=25\n")
	for _, mv := range figureVariants() {
		counts := eval.CompletionCounts
		if mv.Model == model.J1Large7B {
			counts = []int{1, 10} // the paper skips n=25 for J1
		}
		series := eval.NSeries(h.src(), mv, counts, h.Opts)
		fmt.Fprintf(&sb, "%s,%s", mv.Model, mv.Variant)
		for _, v := range series {
			fmt.Fprintf(&sb, ",%.3f", v)
		}
		if len(series) < len(eval.CompletionCounts) {
			sb.WriteString(",skipped")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure7 renders pass rate vs difficulty and vs description level.
func (h *Harness) Figure7() string {
	var sb strings.Builder
	sb.WriteString("Figure 7 (left): Pass@(scenario*10) vs description level\n")
	sb.WriteString("model,variant,L,M,H\n")
	for _, mv := range figureVariants() {
		s := eval.LevelSeries(h.src(), mv, h.Opts)
		fmt.Fprintf(&sb, "%s,%s,%.3f,%.3f,%.3f\n", mv.Model, mv.Variant, s[0], s[1], s[2])
	}
	sb.WriteString("\nFigure 7 (right): Pass@(scenario*10) vs difficulty\n")
	sb.WriteString("model,variant,Basic,Intermediate,Advanced\n")
	for _, mv := range figureVariants() {
		s := eval.DifficultySeries(h.src(), mv, h.Opts)
		fmt.Fprintf(&sb, "%s,%s,%.3f,%.3f,%.3f\n", mv.Model, mv.Variant, s[0], s[1], s[2])
	}
	return sb.String()
}

// HeadlineReport compares measured aggregates to the paper's Sections
// VI-VII numbers.
func (h *Harness) HeadlineReport() string {
	hl := eval.ComputeHeadline(h.src(), h.Opts)
	var sb strings.Builder
	sb.WriteString("Headline aggregates (measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "pre-trained completions compiling\t%.3f\t%.3f\n", hl.CompilePT, model.HeadlineCompilePT)
	fmt.Fprintf(w, "fine-tuned completions compiling\t%.3f\t%.3f\n", hl.CompileFT, model.HeadlineCompileFT)
	fmt.Fprintf(w, "pre-trained functionally correct\t%.4f\t%.4f\n", hl.FunctionalPT, model.HeadlineFunctionalPT)
	fmt.Fprintf(w, "fine-tuned functionally correct\t%.3f\t%.3f\n", hl.FunctionalFT, model.HeadlineFunctionalFT)
	fmt.Fprintf(w, "CodeGen-16B-FT functional\t%.3f\t%.3f\n", hl.Best16BFT, model.Headline16BFT)
	fmt.Fprintf(w, "code-davinci-002 functional\t%.3f\t%.3f\n", hl.CodexPT, model.HeadlineCodex)
	w.Flush()
	return sb.String()
}

// Ablation reproduces the Section VI corpus ablation: 16B fine-tuned on
// GitHub only vs GitHub plus textbooks. It always builds two family
// runners at the harness's CorpusFiles scale — the ablation is about the
// fine-tuning corpus, whatever backend the enclosing harness runs.
func (h *Harness) Ablation() string {
	if h.Runner == nil {
		return "Corpus ablation unavailable: needs a live backend, not merged shard results\n"
	}
	gh, books := h.AblationStats()
	a, b := gh.PassRate(), books.PassRate()
	rel := 0.0
	if a > 0 {
		rel = b/a - 1
	}
	var sb strings.Builder
	sb.WriteString("Corpus ablation: CodeGen-16B fine-tuning corpus (Section VI)\n")
	fmt.Fprintf(&sb, "GitHub only:        %.3f\n", a)
	fmt.Fprintf(&sb, "GitHub + textbooks: %.3f\n", b)
	fmt.Fprintf(&sb, "relative gain:      %+.1f%% (paper: +1.4%%)\n", 100*rel)
	return sb.String()
}

// AblationStats is the cell data behind Ablation: CodeGen-16B fine-tuned
// aggregated over the harness's sweep options, once per fine-tuning
// corpus, on family runners built at the harness's seed and CorpusFiles.
// It needs a live Runner, whose pool width the family runners take.
func (h *Harness) AblationStats() (gitHubOnly, withBooks eval.CellStats) {
	mv := eval.ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	stats := func(c model.CorpusKind) eval.CellStats {
		r := eval.NewFamilyRunner(model.NewFamily(model.Config{Seed: h.Seed, CorpusFiles: h.CorpusFiles, Corpus: c}), h.Seed)
		r.Workers = h.Runner.Workers
		return eval.Aggregate(r, mv, h.Opts)
	}
	return stats(model.GitHubOnly), stats(model.GitHubPlusBooks)
}

// CorpusStats reports the Section III-A pipeline statistics at the
// harness's synthetic scale.
func (h *Harness) CorpusStats() string {
	files := corpus.GenerateGitHub(corpus.GitHubOptions{Seed: h.Seed})
	kept, st := corpus.Curate(files)
	books := corpus.GenerateBooks(corpus.BookOptions{Seed: h.Seed + 1})
	wins := corpus.ExtractWindows(books)
	var sb strings.Builder
	sb.WriteString("Corpus pipeline statistics (Section III-A, synthetic 1:100 scale)\n")
	fmt.Fprintf(&sb, "raw files:            %d\n", st.Input)
	fmt.Fprintf(&sb, "dropped (no module):  %d\n", st.DroppedNoPair)
	fmt.Fprintf(&sb, "dropped (>=20K):      %d\n", st.DroppedTooBig)
	fmt.Fprintf(&sb, "dropped (duplicate):  %d\n", st.DroppedDup)
	fmt.Fprintf(&sb, "kept files:           %d (%d bytes)\n", st.Kept, st.KeptBytes)
	fmt.Fprintf(&sb, "textbook windows:     %d (from %d books)\n", len(wins), len(books))
	_ = kept
	sb.WriteString("paper scale: ~50K files / ~300 MB GitHub, 400 MB total with 70 books\n")
	return sb.String()
}

// FailureGallery shows one characteristic near-miss per problem with the
// mutation operator that produced it (cf. the paper's Figs. 2-4 incorrect
// completions).
func (h *Harness) FailureGallery() string {
	rng := rand.New(rand.NewSource(h.Seed))
	var sb strings.Builder
	sb.WriteString("Failure-mode gallery (one verified near-miss per problem)\n")
	for _, p := range problems.All() {
		res, err := mutate.Apply(p.ReferenceSource(), rng)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "\n-- Problem %d (%s): operator %q\n", p.Number, p.Slug, res.Operator)
		lines := strings.Split(strings.TrimSpace(res.Source), "\n")
		if len(lines) > 8 {
			lines = append(lines[:8], "  ...")
		}
		sb.WriteString(strings.Join(lines, "\n"))
		sb.WriteString("\n")
	}
	return sb.String()
}

// PassAtKTable reports the unbiased pass@k estimator (Chen et al. 2021,
// the metric VerilogEval standardized after this paper) for the figure
// models, pooled per difficulty, at k = 1, 5, 10 from n=25 samples.
func (h *Harness) PassAtKTable() string {
	const n = 25
	ks := []int{1, 5, 10}
	var sb strings.Builder
	sb.WriteString("pass@k (unbiased estimator, n=25, t=0.1) — framework extension\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Model\tType\tDifficulty\tpass@1\tpass@5\tpass@10")
	for _, mv := range figureVariants() {
		for _, d := range problems.Difficulties {
			pooled := eval.ScenarioStats(h.src(), mv, problems.ByDifficulty(d), problems.Levels, 0.1, n)
			fmt.Fprintf(w, "%s\t%s\t%s", mv.Model, mv.Variant, d)
			for _, k := range ks {
				fmt.Fprintf(w, "\t%.3f", eval.PassAtKFromCell(pooled, k))
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return sb.String()
}

// ProblemBreakdown reports per-problem pass counts for CodeGen-16B-FT,
// reproducing the Section VI finding that problems 7 and 12 never pass
// and problem 9 almost never does.
func (h *Harness) ProblemBreakdown() string {
	mv := eval.ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	var sb strings.Builder
	sb.WriteString("Per-problem results, CodeGen-16B FT (Section VI analysis)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Prob.#\tSlug\tDifficulty\tSamples\tCompiled\tPassed\tPass 95% CI")
	n := h.Opts.ResolvedN()
	for _, p := range problems.All() {
		var qs []eval.Query
		for _, l := range problems.Levels {
			for _, t := range eval.Temperatures {
				qs = append(qs, eval.Query{
					Model: mv.Model, Variant: mv.Variant,
					Problem: p, Level: l, Temperature: t, N: n,
				})
			}
		}
		pooled := eval.CellStats{}
		for _, st := range h.src().Cells(qs) {
			pooled.Add(st)
		}
		lo, hi := pooled.PassInterval()
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t[%.2f, %.2f]\n",
			p.Number, p.Slug, p.Difficulty, pooled.Samples, pooled.Compiled, pooled.Passed, lo, hi)
	}
	w.Flush()
	return sb.String()
}

// LintReport is a framework extension: the synthesizability dimension the
// paper's predecessor study checked. It lints the 17 reference solutions
// and a population of near-miss mutants, reporting findings per rule —
// showing that functionally failing near-misses also skew dirty under
// synthesis-style checks.
func (h *Harness) LintReport() string {
	lintOne := func(src, top string) []lint.Finding {
		f, err := vlog.Parse(src)
		if err != nil {
			return nil
		}
		d, err := elab.Elaborate(f, top, elab.Options{})
		if err != nil {
			return nil
		}
		return lint.Check(d)
	}
	refCounts := map[string]int{}
	for _, p := range problems.All() {
		for _, fd := range lintOne(p.ReferenceSource(), p.ModuleName) {
			refCounts[fd.Rule]++
		}
	}
	rng := rand.New(rand.NewSource(h.Seed + 5))
	mutCounts := map[string]int{}
	mutants := 0
	for _, p := range problems.All() {
		for i := 0; i < 6; i++ {
			res, err := mutate.Apply(p.ReferenceSource(), rng)
			if err != nil {
				continue
			}
			mutants++
			for _, fd := range lintOne(res.Source, p.ModuleName) {
				mutCounts[fd.Rule]++
			}
		}
	}
	rules := map[string]bool{}
	//vgencheck:ordered set union into a map; the rule set is rendered only via the sorted names below
	for r := range refCounts {
		rules[r] = true
	}
	//vgencheck:ordered set union into a map; the rule set is rendered only via the sorted names below
	for r := range mutCounts {
		rules[r] = true
	}
	var names []string
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)

	var sb strings.Builder
	sb.WriteString("Lint findings (framework extension): references vs near-miss mutants\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Rule\t17 references\t%d mutants\n", mutants)
	for _, r := range names {
		fmt.Fprintf(w, "%s\t%d\t%d\n", r, refCounts[r], mutCounts[r])
	}
	w.Flush()
	return sb.String()
}

// ExperimentIndex lists every regenerable artifact (for --list output),
// derived from the renderer registry so the listing can never advertise
// a name the dispatcher doesn't know, or miss one it does.
func ExperimentIndex() []string {
	items := make([]string, 0, len(renderers))
	for _, r := range renderers {
		items = append(items, r.Name+": "+r.Desc)
	}
	sort.Strings(items)
	return items
}
