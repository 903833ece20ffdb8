package elab

import (
	"testing"

	"repro/internal/vlog"
)

// planTestInst elaborates a module and returns its top instance plus a
// lookup for expressions parsed in its scope.
func planTestInst(t *testing.T, src string) *Inst {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := Elaborate(f, "m", Options{})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d.Top
}

// exprOf pulls the RHS expression of the module's single continuous assign.
func exprOf(t *testing.T, in *Inst, src string) vlog.Expr {
	t.Helper()
	f, err := vlog.Parse("module x(output y); assign y = " + src + "; endmodule")
	if err != nil {
		t.Fatalf("parse expr %q: %v", src, err)
	}
	for _, it := range f.Modules[0].Items {
		if ca, ok := it.(*vlog.ContAssign); ok {
			return ca.Assigns[0].RHS
		}
	}
	t.Fatalf("no assign in %q", src)
	return nil
}

const planTestMod = `module m;
  parameter P = 12;
  parameter signed SP = -3;
  reg [15:0] v;
  reg signed [7:0] sv;
  reg [3:0] nib;
  reg [7:0] mem [0:7];
  wire [31:0] w32;
endmodule`

func TestSelfTypeResolution(t *testing.T) {
	in := planTestInst(t, planTestMod)
	cases := []struct {
		src    string
		width  int
		signed bool
	}{
		{"v", 16, false},
		{"sv", 8, true},
		{"P", 32, true},         // parameter: 32-bit signed decimal literal
		{"v + nib", 16, false},  // max of operand widths
		{"sv + sv", 8, true},    // signed only when all operands are
		{"sv + v", 16, false},   // mixed context is unsigned
		{"v < sv", 1, false},    // comparisons are one bit
		{"&v", 1, false},        // reductions are one bit
		{"v << 9", 16, false},   // shift width from the left operand
		{"sv ** sv", 8, true},   // power width from the base
		{"{v, nib}", 20, false}, // concat sums parts
		{"{3{nib}}", 12, false}, // replication multiplies
		{"v[7:2]", 6, false},    // part select span
		{"mem[2]", 8, false},    // memory word width
		{"v[3]", 1, false},      // bit select
		{"$time", 64, false},
		{"$signed(nib)", 4, true}, // $signed keeps the arg width
		{"nib ? sv : sv", 8, true},
	}
	for _, c := range cases {
		e := exprOf(t, in, c.src)
		if w := SelfWidth(e, in); w != c.width {
			t.Errorf("SelfWidth(%q) = %d, want %d", c.src, w, c.width)
		}
		if sg := SelfSigned(e, in); sg != c.signed {
			t.Errorf("SelfSigned(%q) = %v, want %v", c.src, sg, c.signed)
		}
	}
}

func TestCompileExprResolvesStatically(t *testing.T) {
	in := planTestInst(t, planTestMod)

	// parameters fold to constants at the context type
	p := CompileExpr(exprOf(t, in, "P"), in, 16)
	if p.Op != PlanConst {
		t.Fatalf("parameter plan op = %v, want PlanConst", p.Op)
	}
	if p.Width != 32 || !p.Signed {
		t.Errorf("parameter plan type = (%d, %v)", p.Width, p.Signed)
	}
	if u, ok := p.Const.Uint64(); !ok || u != 12 {
		t.Errorf("parameter const = %v", p.Const)
	}

	// context width widens the node beyond its self-determined width
	p = CompileExpr(exprOf(t, in, "nib + nib"), in, 16)
	if p.Op != PlanBinary || p.Width != 16 {
		t.Errorf("context plan = op %v width %d, want PlanBinary at 16", p.Op, p.Width)
	}
	if p.X.Width != 16 || p.Y.Width != 16 {
		t.Errorf("operands not pre-extended: %d, %d", p.X.Width, p.Y.Width)
	}

	// comparisons keep their operands at the operands' own common type
	p = CompileExpr(exprOf(t, in, "sv < sv"), in, 32)
	if p.Op != PlanCompare || p.Width != 32 || p.CmpW != 8 || !p.CmpSg {
		t.Errorf("compare plan = %+v", p)
	}

	// part-select offsets are resolved through the declaration
	p = CompileExpr(exprOf(t, in, "v[7:2]"), in, 0)
	if p.Op != PlanPartSel || !p.OK || p.A != 7 || p.B != 2 || p.Span != 6 {
		t.Errorf("part-select plan = %+v", p)
	}

	// signal references bind to the declaration in the instance
	p = CompileExpr(exprOf(t, in, "sv"), in, 0)
	if p.Op != PlanSignal || p.Sig == nil || p.Sig.Name != "sv" || p.Scope != in {
		t.Errorf("signal plan = %+v", p)
	}

	// memory reads bind the memory and compile the index self-determined
	p = CompileExpr(exprOf(t, in, "mem[nib]"), in, 0)
	if p.Op != PlanMemRead || p.Mem == nil || p.Mem.Name != "mem" || p.X.Op != PlanSignal {
		t.Errorf("memory plan = %+v", p)
	}

	// string literals fold entirely
	p = CompileExpr(&vlog.Str{Text: "ok"}, in, 0)
	if p.Op != PlanConst || p.Width != 16 {
		t.Errorf("string plan = %+v", p)
	}
}
