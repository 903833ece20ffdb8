package mutate

import (
	"math/rand"
	"testing"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

const counterSrc = `module counter(input clk, input reset, output reg [3:0] q);
  always @(posedge clk) begin
    if (reset) q <= 4'd1;
    else if (q == 4'd12) q <= 4'd1;
    else q <= q + 4'd1;
  end
endmodule
`

func TestApplyProducesParseableMutant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		res, err := Apply(counterSrc, rng)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if res.Source == counterSrc {
			t.Fatalf("mutation %q produced identical source", res.Operator)
		}
		if _, err := vlog.Parse(res.Source); err != nil {
			t.Fatalf("mutant from %q does not parse: %v\n%s", res.Operator, err, res.Source)
		}
	}
}

func TestMutantsCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	compiled := 0
	for i := 0; i < 60; i++ {
		res, err := Apply(counterSrc, rng)
		if err != nil {
			t.Fatal(err)
		}
		f, err := vlog.Parse(res.Source)
		if err != nil {
			continue
		}
		if elab.CompileCheck(f) == nil {
			compiled++
		}
	}
	if compiled < 50 {
		t.Fatalf("only %d/60 mutants compile", compiled)
	}
}

func TestEachNamedOperatorOnRichModule(t *testing.T) {
	src := `module rich(input clk, input [7:0] a, input [7:0] b, input sel, output reg [7:0] y, output wire p);
  assign p = a[7] ^ b[6:1] == 0;
  always @(posedge clk) begin
    if (sel) y <= {a[3:0], b[3:0]};
    else begin
      case (a[1:0])
        2'd0: y <= a + b;
        2'd1: y <= a - b;
        default: y <= sel ? a : b;
      endcase
      y <= y;
    end
  end
endmodule
`
	rng := rand.New(rand.NewSource(3))
	for _, op := range Operators {
		f, err := vlog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		orig := vlog.Print(f)
		if !op.apply(f.Modules[0], rng) {
			t.Errorf("operator %q found no site", op.Name)
			continue
		}
		mutant := vlog.Print(f)
		if _, err := vlog.Parse(mutant); err != nil {
			t.Errorf("operator %q mutant does not parse: %v", op.Name, err)
		}
		if mutant == orig {
			t.Errorf("operator %q changed nothing", op.Name)
		}
	}
}

func TestApplyRejectsBadInput(t *testing.T) {
	if _, err := Apply("not verilog", rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("bad input accepted")
	}
}

func TestMutantsBreakReferenceSolutions(t *testing.T) {
	// across the benchmark, a healthy share of compiling mutants must fail
	// the problem test bench (this is what populates the compile-but-fail
	// bucket of the capability model)
	rng := rand.New(rand.NewSource(4))
	totalCompiling, totalFailing := 0, 0
	for _, p := range problems.All() {
		ref := p.ReferenceSource()
		for i := 0; i < 6; i++ {
			res, err := Apply(ref, rng)
			if err != nil {
				continue
			}
			f, err := vlog.Parse(res.Source + "\n" + p.Testbench)
			if err != nil {
				continue
			}
			if elab.CompileCheck(f) != nil {
				continue
			}
			d, err := elab.Elaborate(f, "tb", elab.Options{})
			if err != nil {
				continue
			}
			totalCompiling++
			resSim, _ := sim.New(d, sim.Options{}).Run()
			if !problems.PassVerdict(resSim.Output) {
				totalFailing++
			}
		}
	}
	if totalCompiling < 40 {
		t.Fatalf("too few compiling mutants: %d", totalCompiling)
	}
	if float64(totalFailing) < 0.5*float64(totalCompiling) {
		t.Fatalf("mutants too benign: %d/%d fail test benches", totalFailing, totalCompiling)
	}
}

func TestOperatorDocs(t *testing.T) {
	for _, op := range Operators {
		if op.Name == "" || op.Doc == "" {
			t.Errorf("operator missing name or doc: %+v", op)
		}
	}
}
