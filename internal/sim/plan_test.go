package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

func elabTop(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := elab.Elaborate(f, top, elab.Options{})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

func mustRun(t *testing.T, s *Simulator) Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v (output so far: %q)", err, res.Output)
	}
	return res
}

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Output != want.Output {
		t.Errorf("%s: output diverged:\ngot:  %q\nwant: %q", label, got.Output, want.Output)
	}
	if got.Time != want.Time || got.Steps != want.Steps || got.Finished != want.Finished {
		t.Errorf("%s: metadata diverged: got %+v, want %+v", label, got, want)
	}
}

// runBothEngines elaborates src and simulates it twice — compiled plans
// and the AST interpreter — returning both outputs. The elaborated design
// is shared: simulators only read it.
func runBothEngines(t *testing.T, src string) (compiled, interpreted Result) {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	d, err := elab.Elaborate(f, "tb", elab.Options{})
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	rc, err := New(d, Options{}).Run()
	if err != nil {
		t.Fatalf("compiled run: %v\n%s", err, src)
	}
	ri, err := New(d, Options{Interpret: true}).Run()
	if err != nil {
		t.Fatalf("interpreted run: %v\n%s", err, src)
	}
	return rc, ri
}

// TestCompiledMatchesInterpreterOperators drives one expression per
// operator family — signed and unsigned, with x/z propagation, dynamic
// selects, memories, replication, system functions — through both engines
// and requires byte-identical output.
func TestCompiledMatchesInterpreterOperators(t *testing.T) {
	exprs := []string{
		// context-determined arithmetic, unsigned and signed
		"a + b", "a - b", "a * b", "b / a", "b % a", "sa + sb", "sa * sb",
		"sa / sb", "sa % sb", "-sa", "+sa", "~a",
		// bitwise
		"a & b", "a | b", "a ^ b", "a ~^ b",
		// reductions and logical
		"&a", "|a", "^a", "~&a", "~|a", "~^a", "!a", "a && b", "a || b",
		// comparisons, mixed signedness (operands at their own type)
		"a < b", "a <= b", "a > b", "a >= b", "sa < sb", "sa > b",
		"a == b", "a != b", "a === b", "a !== b", "xz == a", "xz === xz",
		// shifts and power
		"a << 3", "a >> 2", "sa >>> 2", "a >>> 2", "a << b[2:0]",
		"a ** 2", "sa ** sb[1:0]", "2 ** sneg", "sone ** sneg",
		// selects (static and dynamic) and concatenation
		"a[3]", "a[b[2:0]]", "a[6:2]", "sa[4:1]", "{a, b}", "{a[3:0], b[7:4]}",
		"{3{a[1:0]}}", "{a, 4'b10xz}",
		// ternaries, including unknown conditions merging branches
		"a[0] ? a : b", "xz[0] ? a : b", "xz[0] ? a : a",
		// four-state propagation through arithmetic
		"xz + a", "xz & a", "xz | a", "a * xz",
		// memories and system functions
		"m[a[1:0]]", "m[9]", "$signed(a)", "$unsigned(sa)", "$clog2(a)",
		"$clog2(xz)", "$time", "$signed(a[3:0])",
		// wide (>64 bit) paths
		"wa + wb", "wa & wb", "{wa[80:60], b}", "wa[100:90]",
	}
	var checks strings.Builder
	for i, e := range exprs {
		fmt.Fprintf(&checks, "    $display(\"%d: %%b %%d %%h\", (%s), (%s), (%s));\n", i, e, e, e)
	}
	src := fmt.Sprintf(`module tb;
  reg [7:0] a, b;
  reg signed [7:0] sa, sb;
  reg signed [7:0] sneg, sone;
  reg [7:0] xz;
  reg [127:0] wa, wb;
  reg [7:0] m [0:3];
  initial begin
    a = 8'd172; b = 8'd37;
    sa = -8'sd53; sb = 8'sd29;
    sneg = -8'sd1; sone = -8'sd1;
    xz = 8'b10xz_01xz;
    wa = {16{8'hA5}}; wb = {16{8'h3C}};
    m[0] = 8'd11; m[1] = 8'd22; m[2] = 8'd33; m[3] = 8'd44;
    #1;
%s    $finish;
  end
endmodule`, checks.String())

	rc, ri := runBothEngines(t, src)
	if rc.Output != ri.Output {
		t.Errorf("engines diverged:\ncompiled:\n%s\ninterpreted:\n%s", rc.Output, ri.Output)
	}
	if rc.Steps != ri.Steps || rc.Time != ri.Time {
		t.Errorf("metadata diverged: compiled %+v, interpreted %+v", rc, ri)
	}
}

// TestCompiledMatchesInterpreterRandomExprs cross-checks both engines over
// random combinational expressions (the generator from the golden
// differential test) under random stimulus.
func TestCompiledMatchesInterpreterRandomExprs(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		exprStr, _ := genDiffExpr(rng, 3)
		av, bv, cv := rng.Uint64()&0xFF, rng.Uint64()&0xFF, rng.Uint64()&0xFF
		src := fmt.Sprintf(`module dut(input [7:0] a, input [7:0] b, input [7:0] c, output [15:0] y);
  assign y = %s;
endmodule
module tb;
  reg [7:0] a, b, c;
  wire [15:0] y;
  dut d(.a(a), .b(b), .c(c), .y(y));
  initial begin
    a = 8'd%d; b = 8'd%d; c = 8'd%d;
    #1 $display("y=%%d %%b", y, y);
  end
endmodule`, exprStr, av, bv, cv)
		rc, ri := runBothEngines(t, src)
		if rc.Output != ri.Output {
			t.Fatalf("trial %d (%s): compiled %q, interpreted %q", trial, exprStr, rc.Output, ri.Output)
		}
	}
}

// TestCompiledMatchesInterpreterRandomStream pins the $random draw order:
// sub-expression evaluation order is observable through the RNG, so both
// engines must consume the stream identically.
func TestCompiledMatchesInterpreterRandomStream(t *testing.T) {
	src := `module tb;
  reg [31:0] r1, r2;
  reg [7:0] i;
  initial begin
    for (i = 0; i < 8; i = i + 1) begin
      r1 = $random + ($random & 32'hFF);
      r2 = {$random} ^ {24'd0, i};
      #1 $display("%d %h %h", $time, r1, r2);
    end
    $finish;
  end
endmodule`
	rc, ri := runBothEngines(t, src)
	if rc.Output != ri.Output {
		t.Errorf("RNG stream diverged:\ncompiled:\n%s\ninterpreted:\n%s", rc.Output, ri.Output)
	}
}

// stmtPositions counts the statement slots a bound tree can hold for st:
// one per statement, including the empty positions (a bare "#5;", an
// "if" without a then-statement) the engines still execute and charge.
func stmtPositions(st vlog.Stmt) int {
	n := 1
	switch x := st.(type) {
	case *vlog.Block:
		for _, sub := range x.Stmts {
			n += stmtPositions(sub)
		}
	case *vlog.If:
		n += stmtPositions(x.Then)
		if x.Else != nil {
			n += stmtPositions(x.Else)
		}
	case *vlog.Case:
		for _, item := range x.Items {
			n += stmtPositions(item.Body)
		}
	case *vlog.For:
		n += stmtPositions(x.Init) + stmtPositions(x.Step) + stmtPositions(x.Body)
	case *vlog.While:
		n += stmtPositions(x.Body)
	case *vlog.Repeat:
		n += stmtPositions(x.Body)
	case *vlog.Forever:
		n += stmtPositions(x.Body)
	case *vlog.Delay:
		n += stmtPositions(x.Stmt)
	case *vlog.EventCtrl:
		n += stmtPositions(x.Stmt)
	case *vlog.Wait:
		n += stmtPositions(x.Stmt)
	}
	return n
}

// TestBoundPlansBounded runs a long clocked simulation and checks that the
// bound statement trees stay within the design's static statement count
// and the plans they compile within its static expression count, not
// growing with the event count — including the @* sensitivity idents,
// which are synthesized once per site.
func TestBoundPlansBounded(t *testing.T) {
	src := `module tb;
  reg clk, reset;
  reg [15:0] q;
  reg [15:0] shadow;
  always #5 clk = ~clk;
  always @(posedge clk or posedge reset) begin
    if (reset) q <= 0;
    else q <= q + 1;
  end
  always @* shadow = q ^ 16'hFFFF;
  initial begin
    clk = 0; reset = 1;
    #12 reset = 0;
    #4000 $display("q=%d shadow=%h", q, shadow);
    $finish;
  end
endmodule`
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(f, "tb", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 1000 {
		t.Fatalf("expected a long run, got %d steps", res.Steps)
	}
	static := 0
	for _, p := range d.Procs {
		static += stmtPositions(p.Body)
	}
	if s.binds == 0 || s.binds > static {
		t.Errorf("bound %d statements after %d steps, want 1..%d (the static statement count)", s.binds, res.Steps, static)
	}
	if s.compiles == 0 || s.compiles > 64 {
		t.Errorf("plan compiles grew with events: %d after %d steps", s.compiles, res.Steps)
	}
}

// TestInterpretModeUsesNoPlans pins the ablation baseline: under
// Options.Interpret no statement binds and no plan is compiled.
func TestInterpretModeUsesNoPlans(t *testing.T) {
	src := `module tb;
  reg [7:0] a;
  initial begin a = 8'd5; #1 $display("%d", a + 8'd1); $finish; end
endmodule`
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(f, "tb", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, Options{Interpret: true})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.binds != 0 || s.compiles != 0 {
		t.Errorf("interpreter mode bound %d statements and compiled %d plans", s.binds, s.compiles)
	}
}

// TestUnreachedStatementsNeverBind pins lazy binding: a branch no run
// takes compiles nothing, so a design with dead if (1'b0) arms (a block
// and a lone assignment) records exactly the plan compiles and statement
// binds of the same design with empty arms.
func TestUnreachedStatementsNeverBind(t *testing.T) {
	const tmpl = `module tb;
  reg [7:0] a, b, y;
  reg [7:0] m [0:3];
  initial begin
    a = 8'd3; b = 8'd4; y = 8'd0;
    if (1'b0) %s
    if (1'b0) %s
    #1 $display("y=%%d", y);
  end
endmodule`
	run := func(block, assign string) (Result, int, int) {
		t.Helper()
		s := New(elabTop(t, fmt.Sprintf(tmpl, block, assign), "tb"), Options{})
		return mustRun(t, s), s.compiles, s.binds
	}
	dead, deadCompiles, deadBinds := run(`begin
      y = {4{a[1:0]}} + b * 8'd3;
      m[a[1:0]] <= y ^ b;
      case (y) 8'd1: y = 8'd2; default: $display("%b %h", a, {b, y}); endcase
      @(posedge a) wait (b) y = 8'd9;
    end`, "y = a * b + 8'd7;")
	empty, emptyCompiles, emptyBinds := run(";", ";")
	sameResult(t, "dead arm", dead, empty)
	if deadCompiles != emptyCompiles {
		t.Errorf("dead arm compiled %d plans, empty arm %d", deadCompiles, emptyCompiles)
	}
	if deadBinds != emptyBinds {
		t.Errorf("dead arm bound %d statements, empty arm %d", deadBinds, emptyBinds)
	}
}

// TestClockedCycleAllocations pins the compiled engine's steady state: on
// a clocked counter, one more cycle allocates only the clocked process's
// wait registration. Scheduling a delay, queueing the NBA, evaluating
// bound plans and switching between the scheduler and a process allocate
// nothing.
func TestClockedCycleAllocations(t *testing.T) {
	const tmpl = `module tb;
  reg clk;
  reg [15:0] q;
  always #5 clk = ~clk;
  always @(posedge clk) q <= q + 16'd1;
  initial begin clk = 0; q = 0; #%d $finish; end
endmodule`
	const short, long = 100, 1100 // cycles
	allocs := func(cycles int) float64 {
		d := elabTop(t, fmt.Sprintf(tmpl, cycles*10+1), "tb")
		return testing.AllocsPerRun(20, func() {
			if _, err := New(d, Options{}).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	perCycle := (allocs(long) - allocs(short)) / (long - short)
	t.Logf("%.3f allocations per clock cycle", perCycle)
	if perCycle > 1 {
		t.Errorf("%.2f allocations per clock cycle, want at most 1 (the wait registration)", perCycle)
	}
}
