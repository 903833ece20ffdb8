package vlog

import (
	"strings"
	"testing"
)

// ParseExprString parses a standalone expression.
func ParseExprString(src string) (Expr, error) {
	p := newParser(*NewLexer(src), Pos{Line: 1, Col: 1})
	e, err := p.parseExpr()
	if err == nil && !p.atEOF() {
		err = p.errorf("trailing input after expression", "", Token{})
	}
	if _, err := p.finish(nil, err); err != nil {
		return nil, err
	}
	return e, nil
}

func mustParse(t *testing.T, src string) *SourceFile {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	return f
}

func TestParseMinimalModule(t *testing.T) {
	f := mustParse(t, "module top; endmodule")
	if len(f.Modules) != 1 || f.Modules[0].Name != "top" {
		t.Fatalf("modules = %+v", f.Modules)
	}
}

func TestParseANSIPorts(t *testing.T) {
	f := mustParse(t, `module counter(input clk, input reset, output reg [3:0] q); endmodule`)
	m := f.Modules[0]
	if len(m.PortNames) != 3 {
		t.Fatalf("port names = %v", m.PortNames)
	}
	var decls []*PortDecl
	for _, it := range m.Items {
		if pd, ok := it.(*PortDecl); ok {
			decls = append(decls, pd)
		}
	}
	if len(decls) != 3 {
		t.Fatalf("port decls = %d", len(decls))
	}
	last := decls[2]
	if last.Dir != DirOutput || !last.IsReg || last.Range == nil {
		t.Fatalf("q decl = %+v", last)
	}
}

func TestParseNonANSIPorts(t *testing.T) {
	f := mustParse(t, `module m(a, b); input a; output b; wire a; endmodule`)
	m := f.Modules[0]
	if len(m.PortNames) != 2 || m.PortNames[0] != "a" {
		t.Fatalf("ports = %v", m.PortNames)
	}
}

func TestParseGroupedANSIPorts(t *testing.T) {
	// one direction keyword covering several names
	f := mustParse(t, `module m(input a, b, output c); endmodule`)
	m := f.Modules[0]
	if len(m.PortNames) != 3 {
		t.Fatalf("ports = %v", m.PortNames)
	}
	pd := m.Items[0].(*PortDecl)
	if len(pd.Names) != 2 || pd.Dir != DirInput {
		t.Fatalf("first decl = %+v", pd)
	}
}

func TestParseDeclsAndAssign(t *testing.T) {
	src := `module m;
  wire [7:0] w;
  reg signed [7:0] r;
  reg [7:0] mem [63:0];
  integer i;
  parameter IDLE = 0, RUN = 1;
  localparam W = 8;
  assign w = r + 1;
endmodule`
	f := mustParse(t, src)
	m := f.Modules[0]
	if len(m.Items) != 7 {
		t.Fatalf("items = %d", len(m.Items))
	}
	mem := m.Items[2].(*NetDecl)
	if mem.Names[0].ArrayRange == nil {
		t.Fatal("memory array range missing")
	}
	pd := m.Items[4].(*ParamDecl)
	if len(pd.Params) != 2 || pd.Local {
		t.Fatalf("param decl = %+v", pd)
	}
	lp := m.Items[5].(*ParamDecl)
	if !lp.Local {
		t.Fatal("localparam flag lost")
	}
}

func TestParseAlwaysFSM(t *testing.T) {
	src := `module fsm(input clk, input reset, input x, output z);
  parameter IDLE = 0, S1 = 1;
  reg [1:0] present_state, next_state;
  always @(posedge clk or posedge reset) begin
    if (reset) present_state <= IDLE;
    else present_state <= next_state;
  end
  always @(present_state or x) begin
    case (present_state)
      IDLE: if (x) next_state = S1; else next_state = IDLE;
      S1: next_state = IDLE;
      default: next_state = IDLE;
    endcase
  end
  assign z = present_state == S1;
endmodule`
	f := mustParse(t, src)
	m := f.Modules[0]
	var aw []*AlwaysBlock
	for _, it := range m.Items {
		if a, ok := it.(*AlwaysBlock); ok {
			aw = append(aw, a)
		}
	}
	if len(aw) != 2 {
		t.Fatalf("always blocks = %d", len(aw))
	}
	ec := aw[0].Body.(*EventCtrl)
	if len(ec.Events) != 2 || ec.Events[0].Edge != EdgePos {
		t.Fatalf("events = %+v", ec.Events)
	}
	blk := ec.Stmt.(*Block)
	ifs := blk.Stmts[0].(*If)
	as := ifs.Then.(*Assign)
	if !as.NonBlocking {
		t.Fatal("expected nonblocking assign")
	}
}

func TestParseTestbenchConstructs(t *testing.T) {
	src := `module tb;
  reg clk, reset;
  wire [3:0] q;
  integer errors;
  counter dut(.clk(clk), .reset(reset), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; reset = 1; errors = 0;
    #12 reset = 0;
    repeat (20) begin
      @(posedge clk);
      if (q !== 4'd1) begin
        errors = errors + 1;
        $display("FAIL q=%d at %t", q, $time);
      end
    end
    if (errors == 0) $display("RESULT: PASS");
    else $display("RESULT: FAIL");
    $finish;
  end
endmodule`
	f := mustParse(t, src)
	m := f.Modules[0]
	var inst *Instance
	for _, it := range m.Items {
		if i, ok := it.(*Instance); ok {
			inst = i
		}
	}
	if inst == nil || inst.Module != "counter" || len(inst.Conns) != 3 {
		t.Fatalf("instance = %+v", inst)
	}
	if inst.Conns[0].Name != "clk" {
		t.Fatalf("named conn = %+v", inst.Conns[0])
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"a + b * c",
		"(a + b) * c",
		"a ? b : c ? d : e",
		"{a, b[3:0], 2'b01}",
		"{4{x}}",
		"~&vec",
		"a <<< 2",
		"q[i]",
		"mem[addr][3:0]",
		"x == 8'hFF && y != 0",
		"-a ** 2",
		"$time",
		"$random % 16",
	}
	for _, c := range cases {
		if _, err := ParseExprString(c); err != nil {
			t.Errorf("%q: %v", c, err)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExprString("a + b * c")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*Binary)
	if b.Op != "+" {
		t.Fatalf("root op = %s", b.Op)
	}
	if inner := b.Y.(*Binary); inner.Op != "*" {
		t.Fatalf("inner op = %s", inner.Op)
	}
	// equality binds tighter than &
	e2, _ := ParseExprString("a & b == c")
	if b2 := e2.(*Binary); b2.Op != "&" {
		t.Fatalf("& precedence wrong: root %s", b2.Op)
	}
}

func TestParseSizedLiteralWithSpace(t *testing.T) {
	e, err := ParseExprString("4 'b1010")
	if err != nil {
		t.Fatal(err)
	}
	n := e.(*Number)
	if n.Value.Width() != 4 {
		t.Fatalf("width = %d", n.Value.Width())
	}
}

func TestParseModuleParamHeader(t *testing.T) {
	f := mustParse(t, `module ram #(parameter DW = 8, AW = 6)(input clk); endmodule`)
	m := f.Modules[0]
	pd, ok := m.Items[0].(*ParamDecl)
	if !ok || len(pd.Params) != 2 {
		t.Fatalf("param header = %+v", m.Items[0])
	}
}

func TestParseParamOverrideInstance(t *testing.T) {
	f := mustParse(t, `module top; ram #(.DW(16)) r0 (clk); endmodule`)
	inst := f.Modules[0].Items[0].(*Instance)
	if len(inst.Params) != 1 || inst.Params[0].Name != "DW" {
		t.Fatalf("params = %+v", inst.Params)
	}
}

func TestParseForLoop(t *testing.T) {
	src := `module m; reg [7:0] mem [3:0]; integer i;
  initial for (i = 0; i < 4; i = i + 1) mem[i] = 0;
endmodule`
	f := mustParse(t, src)
	ib := f.Modules[0].Items[2].(*InitialBlock)
	fl := ib.Body.(*For)
	if fl.Init == nil || fl.Cond == nil || fl.Step == nil {
		t.Fatalf("for = %+v", fl)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"module",
		"module m",
		"module m; always",
		"module m; assign = 1; endmodule",
		"module m; if (a) b = 1; endmodule", // statement at item level
		"module m; wire 4w; endmodule",
		"module m; function f; endfunction endmodule",
		"module m; case endmodule",
		"garbage",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseConcatLValue(t *testing.T) {
	src := `module m(output reg c, output reg [3:0] s, input [3:0] a, b);
  always @(*) {c, s} = a + b;
endmodule`
	f := mustParse(t, src)
	var ab *AlwaysBlock
	for _, it := range f.Modules[0].Items {
		if a, ok := it.(*AlwaysBlock); ok {
			ab = a
		}
	}
	ec := ab.Body.(*EventCtrl)
	if !ec.Star {
		t.Fatal("expected @(*)")
	}
	as := ec.Stmt.(*Assign)
	if _, ok := as.LHS.(*Concat); !ok {
		t.Fatalf("lhs = %T", as.LHS)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		`module counter(input clk, input reset, output reg [3:0] q);
  always @(posedge clk) begin
    if (reset) q <= 4'd1;
    else if (q == 4'd12) q <= 4'd1;
    else q <= q + 4'd1;
  end
endmodule`,
		`module tb;
  reg clk;
  wire [3:0] q;
  counter dut(.clk(clk), .reset(reset), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0;
    #100 $finish;
  end
endmodule`,
		`module mux(input a, b, sel, output y);
  assign y = sel ? b : a;
endmodule`,
		`module shift(input clk, input [1:0] amt, input [7:0] d, output reg [7:0] out);
  always @(*) begin
    case (amt)
      2'b00: out = d;
      2'b01: out = {d[6:0], d[7]};
      default: out = 8'b0;
    endcase
  end
endmodule`,
	}
	for _, src := range srcs {
		f1 := mustParse(t, src)
		printed := Print(f1)
		f2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse failed: %v\nprinted:\n%s", err, printed)
		}
		printed2 := Print(f2)
		if printed != printed2 {
			t.Errorf("print not stable:\n--- first:\n%s\n--- second:\n%s", printed, printed2)
		}
	}
}

func TestParseMultipleModules(t *testing.T) {
	f := mustParse(t, "module a; endmodule\nmodule b; endmodule")
	if len(f.Modules) != 2 {
		t.Fatalf("modules = %d", len(f.Modules))
	}
	if f.FindModule("b") == nil || f.FindModule("c") != nil {
		t.Fatal("FindModule wrong")
	}
}

func TestParseWaitAndWhile(t *testing.T) {
	src := `module m; reg a; initial begin wait (a) ; while (a) a = 0; end endmodule`
	mustParse(t, src)
}

func TestParseUnsupportedGate(t *testing.T) {
	if _, err := Parse("module m; and g(a, b, c); endmodule"); err == nil {
		t.Fatal("gate primitives should be unsupported")
	}
	if err, ok := errOf(t, "module m; and g(a,b,c); endmodule").(*ParseError); !ok {
		t.Fatalf("error type = %T", err)
	}
}

func errOf(t *testing.T, src string) error {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("expected error for %q", src)
	}
	return err
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("module m;\n  wire ;\nendmodule")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line info: %v", err)
	}
}
