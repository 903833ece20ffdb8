package eval

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/problems"
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	f := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 60, VocabSize: 300})
	return NewFamilyRunner(f, 99)
}

func TestTruncate(t *testing.T) {
	in := "  assign y = a;\nendmodule\nmodule junk; endmodule"
	got := Truncate(in)
	want := "  assign y = a;\nendmodule\n"
	if got != want {
		t.Fatalf("truncate = %q", got)
	}
	if Truncate("no terminator") != "no terminator" {
		t.Fatal("missing endmodule should pass through")
	}
}

func TestEvaluateReference(t *testing.T) {
	p := problems.ByNumber(6)
	o := Evaluate(p, problems.LevelLow, p.RefBody)
	if !o.Compiles || !o.Passes {
		t.Fatalf("reference outcome = %+v", o)
	}
}

func TestEvaluateBroken(t *testing.T) {
	p := problems.ByNumber(6)
	o := Evaluate(p, problems.LevelLow, "  garbage tokens here\n")
	if o.Compiles || o.Passes {
		t.Fatalf("broken outcome = %+v", o)
	}
}

func TestEvaluateCompilesButFails(t *testing.T) {
	p := problems.ByNumber(6)
	// counter that never wraps (the paper's Fig. 3c failure)
	body := `  always @(posedge clk) begin
    if (reset) q <= 4'd1;
    else q <= q + 4'd1;
  end
endmodule
`
	o := Evaluate(p, problems.LevelMedium, body)
	if !o.Compiles {
		t.Fatal("near-miss should compile")
	}
	if o.Passes {
		t.Fatal("near-miss should fail the test bench")
	}
}

func TestEvaluateTrailingJunkTruncated(t *testing.T) {
	p := problems.ByNumber(1)
	o := Evaluate(p, problems.LevelLow, p.RefBody+"\ncomplete garbage that would not parse")
	if !o.Passes {
		t.Fatal("junk after endmodule should be cut by truncation")
	}
}

func TestEvaluatedVariantsCount(t *testing.T) {
	vs := EvaluatedVariants()
	if len(vs) != 11 {
		t.Fatalf("variant rows = %d, want 11", len(vs))
	}
	ftCodex := false
	for _, v := range vs {
		if v.Model == model.Codex && v.Variant == model.FineTuned {
			ftCodex = true
		}
	}
	if ftCodex {
		t.Fatal("codex FT should not be evaluated")
	}
}

func TestRunCellReproducible(t *testing.T) {
	r := testRunner(t)
	q := Query{Model: model.CodeGen16B, Variant: model.FineTuned,
		Problem: problems.ByNumber(2), Level: problems.LevelLow, Temperature: 0.1, N: 10}
	a := r.Run(q)
	b := r.Run(q)
	if a != b {
		t.Fatalf("cell not reproducible: %+v vs %+v", a, b)
	}
	if a.Samples != 10 {
		t.Fatalf("samples = %d", a.Samples)
	}
}

func TestCellStatsMath(t *testing.T) {
	c := CellStats{Samples: 10, Compiled: 8, Passed: 4, SumLat: 20}
	if c.CompileRate() != 0.8 || c.PassRate() != 0.4 || c.MeanLatency() != 2 {
		t.Fatalf("stats = %+v", c)
	}
	var zero CellStats
	if zero.CompileRate() != 0 || zero.PassRate() != 0 || zero.MeanLatency() != 0 {
		t.Fatal("zero stats should be zero")
	}
	c.Add(CellStats{Samples: 10, Compiled: 2, Passed: 6, SumLat: 10})
	if c.Samples != 20 || c.Compiled != 10 || c.Passed != 10 {
		t.Fatalf("after add: %+v", c)
	}
}

func TestTableCellsTrackPriors(t *testing.T) {
	r := testRunner(t)
	opts := SweepOptions{N: 10, Temperatures: []float64{0.1}}
	mv := ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}

	got := TableIVCell(r, mv, problems.Basic, problems.LevelLow, opts)
	want := model.FunctionalPrior(model.CodeGen16B, model.FineTuned, problems.Basic, problems.LevelLow)
	if math.Abs(got-want) > 0.15 {
		t.Errorf("Table IV basic/L: got %f, prior %f", got, want)
	}

	gotC := TableIIICell(r, mv, problems.Basic, opts)
	wantC := model.CompilePrior(model.CodeGen16B, model.FineTuned, problems.Basic)
	if math.Abs(gotC-wantC) > 0.15 {
		t.Errorf("Table III basic: got %f, prior %f", gotC, wantC)
	}

	// zero-prior row stays (near) zero
	mvPT := ModelVariant{Model: model.Megatron355M, Variant: model.Pretrained}
	if got := TableIVCell(r, mvPT, problems.Advanced, problems.LevelHigh, opts); got > 0.02 {
		t.Errorf("Megatron PT advanced = %f, want about 0", got)
	}
}

func TestTemperatureSeriesDecays(t *testing.T) {
	r := testRunner(t)
	mv := ModelVariant{Model: model.CodeGen6B, Variant: model.FineTuned}
	series := TemperatureSeries(r, mv, SweepOptions{N: 6})
	if len(series) != len(Temperatures) {
		t.Fatalf("series length = %d", len(series))
	}
	if !(series[0] > series[len(series)-1]) {
		t.Fatalf("pass rate should decay with temperature: %v", series)
	}
}

func TestDifficultySeriesDecreases(t *testing.T) {
	r := testRunner(t)
	mv := ModelVariant{Model: model.Codex, Variant: model.Pretrained}
	// n=10 keeps the sampled trend clear of per-sample noise (the hashed
	// RNG streams make each sample independent, so tiny n is high-variance)
	s := DifficultySeries(r, mv, SweepOptions{N: 10, Temperatures: []float64{0.1}})
	if len(s) != 3 {
		t.Fatalf("series = %v", s)
	}
	if !(s[0] > s[1] && s[1] >= s[2]*0.8) {
		t.Fatalf("difficulty trend broken: %v", s)
	}
}

func TestLevelSeriesLength(t *testing.T) {
	r := testRunner(t)
	mv := ModelVariant{Model: model.CodeGen2B, Variant: model.FineTuned}
	s := LevelSeries(r, mv, SweepOptions{N: 4, Temperatures: []float64{0.1}})
	if len(s) != 3 {
		t.Fatalf("series = %v", s)
	}
}

func TestFineTuningBeatsPretrained(t *testing.T) {
	r := testRunner(t)
	opts := SweepOptions{N: 8, Temperatures: []float64{0.1}}
	ft := Aggregate(r, ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}, opts)
	pt := Aggregate(r, ModelVariant{Model: model.CodeGen16B, Variant: model.Pretrained}, opts)
	if !(ft.PassRate() > pt.PassRate()) {
		t.Fatalf("FT %f should beat PT %f", ft.PassRate(), pt.PassRate())
	}
}

func TestHeadlineShape(t *testing.T) {
	r := testRunner(t)
	h := ComputeHeadline(r, SweepOptions{N: 4, Temperatures: []float64{0.1}})
	if !(h.CompileFT > h.CompilePT) {
		t.Errorf("compile FT %f should beat PT %f", h.CompileFT, h.CompilePT)
	}
	if !(h.FunctionalFT > h.FunctionalPT) {
		t.Errorf("functional FT %f should beat PT %f", h.FunctionalFT, h.FunctionalPT)
	}
	if !(h.Best16BFT > h.CodexPT) {
		t.Errorf("16B FT %f should beat codex %f", h.Best16BFT, h.CodexPT)
	}
}
