package eval

import (
	"repro/internal/model"
	"repro/internal/problems"
)

// This file implements the experiment sweeps behind the paper's tables and
// figures. Each sweep pools cells into Pass@(scenario·n) values and, where
// the paper reports "best results", selects the best temperature per
// scenario (Section V-B).
//
// Every sweep is a pure function of per-query CellStats, so each is
// written over a CellSource: a live Runner computes the cells in-process,
// a ResultSet replays merged shard results, and PlanSource enumerates the
// cells without evaluating anything.

// SweepOptions bound the sweep cost.
type SweepOptions struct {
	N            int       // completions per prompt; 0 = 10
	Temperatures []float64 // nil = the paper's five temperatures
}

// ResolvedN is the effective completions-per-prompt count: N, or the
// paper's default of 10 when unset. Exported so renderers outside this
// package resolve the same default — N is part of the wire cell address,
// so two resolvers drifting apart would plan disjoint cells.
func (o SweepOptions) ResolvedN() int {
	if o.N <= 0 {
		return 10
	}
	return o.N
}

func (o SweepOptions) n() int { return o.ResolvedN() }

func (o SweepOptions) temps() []float64 {
	if len(o.Temperatures) == 0 {
		return Temperatures
	}
	return o.Temperatures
}

// ScenarioStats pools every (problem, level) cell of a scenario at one
// temperature. The cells go to the source as one batch, so a live Runner
// sees every (problem, level, sample) item of the scenario at once rather
// than draining one cell at a time.
func ScenarioStats(src CellSource, mv ModelVariant, ps []*problems.Problem, levels []problems.Level, temp float64, n int) CellStats {
	qs := make([]Query, 0, len(ps)*len(levels))
	for _, p := range ps {
		for _, l := range levels {
			qs = append(qs, Query{
				Model: mv.Model, Variant: mv.Variant,
				Problem: p, Level: l, Temperature: temp, N: n,
			})
		}
	}
	pooled := CellStats{}
	for _, st := range src.Cells(qs) {
		pooled.Add(st)
	}
	return pooled
}

// BestOverTemps returns the best-scoring pooled stats across the sweep
// temperatures, using score to rank (compile rate or pass rate).
func BestOverTemps(src CellSource, mv ModelVariant, ps []*problems.Problem, levels []problems.Level, opts SweepOptions, score func(CellStats) float64) (CellStats, float64) {
	var best CellStats
	bestTemp := opts.temps()[0]
	first := true
	for _, t := range opts.temps() {
		st := ScenarioStats(src, mv, ps, levels, t, opts.n())
		if first || score(st) > score(best) {
			best, bestTemp = st, t
			first = false
		}
	}
	return best, bestTemp
}

// TableIIICell computes one Table III entry: best-temperature compile rate
// for a (model variant, difficulty) scenario pooled over all levels.
func TableIIICell(src CellSource, mv ModelVariant, d problems.Difficulty, opts SweepOptions) float64 {
	st, _ := BestOverTemps(src, mv, problems.ByDifficulty(d), problems.Levels, opts, CellStats.CompileRate)
	return st.CompileRate()
}

// TableIVCell computes one Table IV entry: best-temperature functional
// pass rate for a (model variant, difficulty, level) scenario.
func TableIVCell(src CellSource, mv ModelVariant, d problems.Difficulty, l problems.Level, opts SweepOptions) float64 {
	st, _ := BestOverTemps(src, mv, problems.ByDifficulty(d), []problems.Level{l}, opts, CellStats.PassRate)
	return st.PassRate()
}

// InferenceTime reports the pooled mean simulated latency for a variant.
func InferenceTime(src CellSource, mv ModelVariant, opts SweepOptions) float64 {
	st := ScenarioStats(src, mv, problems.All()[:2], problems.Levels, 0.1, opts.n())
	return st.MeanLatency()
}

// TemperatureSeries is Fig. 6 (left): pooled pass rate per temperature.
func TemperatureSeries(src CellSource, mv ModelVariant, opts SweepOptions) []float64 {
	out := make([]float64, 0, len(opts.temps()))
	for _, t := range opts.temps() {
		st := ScenarioStats(src, mv, problems.All(), problems.Levels, t, opts.n())
		out = append(out, st.PassRate())
	}
	return out
}

// NSeries is Fig. 6 (right): best-temperature pooled pass rate per
// completions-per-prompt count.
func NSeries(src CellSource, mv ModelVariant, counts []int, opts SweepOptions) []float64 {
	if len(counts) == 0 {
		counts = CompletionCounts
	}
	out := make([]float64, 0, len(counts))
	for _, n := range counts {
		o := opts
		o.N = n
		st, _ := BestOverTemps(src, mv, problems.All(), problems.Levels, o, CellStats.PassRate)
		out = append(out, st.PassRate())
	}
	return out
}

// DifficultySeries is Fig. 7 (right): best-temperature pass rate per
// difficulty class.
func DifficultySeries(src CellSource, mv ModelVariant, opts SweepOptions) []float64 {
	out := make([]float64, 0, len(problems.Difficulties))
	for _, d := range problems.Difficulties {
		st, _ := BestOverTemps(src, mv, problems.ByDifficulty(d), problems.Levels, opts, CellStats.PassRate)
		out = append(out, st.PassRate())
	}
	return out
}

// LevelSeries is Fig. 7 (left): best-temperature pass rate per prompt
// description level.
func LevelSeries(src CellSource, mv ModelVariant, opts SweepOptions) []float64 {
	out := make([]float64, 0, len(problems.Levels))
	for _, l := range problems.Levels {
		st, _ := BestOverTemps(src, mv, problems.All(), []problems.Level{l}, opts, CellStats.PassRate)
		out = append(out, st.PassRate())
	}
	return out
}

// Aggregate pools best-temperature stats over every difficulty and level
// for a variant (the Sections VI-VII headline aggregates).
func Aggregate(src CellSource, mv ModelVariant, opts SweepOptions) CellStats {
	pooled := CellStats{}
	for _, d := range problems.Difficulties {
		st, _ := BestOverTemps(src, mv, problems.ByDifficulty(d), problems.Levels, opts, CellStats.PassRate)
		pooled.Add(st)
	}
	return pooled
}

// Headline summarizes the paper's Sections VI-VII aggregates over a runner.
type Headline struct {
	CompilePT    float64
	CompileFT    float64
	FunctionalPT float64
	FunctionalFT float64
	Best16BFT    float64
	CodexPT      float64
}

// meanFunctionalCells averages the nine Table IV cells of one variant —
// the paper's per-model "overall" functional score (the 41.9% / 35.4%
// numbers are exactly this mean for 16B-FT and codex).
func meanFunctionalCells(src CellSource, mv ModelVariant, opts SweepOptions) float64 {
	sum := 0.0
	for _, d := range problems.Difficulties {
		for _, l := range problems.Levels {
			sum += TableIVCell(src, mv, d, l, opts)
		}
	}
	return sum / 9
}

// meanCompileCells averages the three Table III cells of one variant.
func meanCompileCells(src CellSource, mv ModelVariant, opts SweepOptions) float64 {
	sum := 0.0
	for _, d := range problems.Difficulties {
		sum += TableIIICell(src, mv, d, opts)
	}
	return sum / 3
}

// ComputeHeadline reproduces the Sections VI-VII aggregates: per-model
// scores are cell means, and the PT/FT headlines are means over the five
// fine-tunable models (code-davinci-002 is reported separately).
func ComputeHeadline(src CellSource, opts SweepOptions) Headline {
	var h Headline
	nPT, nFT := 0, 0
	for _, mv := range EvaluatedVariants() {
		f := meanFunctionalCells(src, mv, opts)
		if mv.Model == model.Codex {
			h.CodexPT = f
			continue
		}
		c := meanCompileCells(src, mv, opts)
		if mv.Variant == model.Pretrained {
			h.CompilePT += c
			h.FunctionalPT += f
			nPT++
		} else {
			h.CompileFT += c
			h.FunctionalFT += f
			nFT++
		}
		if mv.Model == model.CodeGen16B && mv.Variant == model.FineTuned {
			h.Best16BFT = f
		}
	}
	if nPT > 0 {
		h.CompilePT /= float64(nPT)
		h.FunctionalPT /= float64(nPT)
	}
	if nFT > 0 {
		h.CompileFT /= float64(nFT)
		h.FunctionalFT /= float64(nFT)
	}
	return h
}
