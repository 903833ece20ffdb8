package sim

import (
	"errors"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// errText is an error's message, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// stmtCase is one source for the statement differential test. mutate, when
// set, edits the elaborated design before it runs (to reach a runtime path
// elaboration would otherwise reject); check, when set, pins what the run
// must show, so a case cannot pass by never reaching its path.
type stmtCase struct {
	name, top, src string
	mutate         func(*elab.Design)
	check          func(t *testing.T, res Result, err error)
}

// wantErr checks that a run failed with an error whose text is msg.
func wantErr(msg string) func(*testing.T, Result, error) {
	return func(t *testing.T, _ Result, err error) {
		t.Helper()
		if errText(err) != msg {
			t.Errorf("err = %q, want %q", errText(err), msg)
		}
	}
}

// wantStepLimit checks that a run stopped at the step budget: the budget
// plus the step that broke it.
func wantStepLimit(t *testing.T, res Result, err error) {
	t.Helper()
	if !errors.Is(err, ErrStepLimit) || res.Steps != maxSteps+1 {
		t.Errorf("err = %v after %d steps, want ErrStepLimit after %d", err, res.Steps, maxSteps+1)
	}
}

// wantOutput checks the captured output of a clean run.
func wantOutput(want string) func(*testing.T, Result, error) {
	return func(t *testing.T, res Result, err error) {
		t.Helper()
		if err != nil || res.Output != want {
			t.Errorf("output %q, err %v; want %q", res.Output, err, want)
		}
	}
}

var stmtCases = []stmtCase{
	{name: "null statements and bare delays", top: "m", src: `module m;
  reg a;
  initial begin
    ;
    a = 0;
    #5;
    ;
    #5 ;
    a = 1;
    $display("%t %b", $time, a);
  end
endmodule`, check: wantOutput("10 1\n")},
	{name: "nested and named blocks", top: "m", src: `module m;
  reg [3:0] a, b;
  initial begin : outer
    a = 1;
    begin : inner
      b = a + 1;
      begin
        a = b + 1;
      end
    end
    begin end
    $display("a=%d b=%d", a, b);
  end
endmodule`, check: wantOutput("a=3 b=2\n")},
	{name: "if without else", top: "m", src: `module m;
  reg [3:0] a, b;
  initial begin
    a = 4'd2; b = 0;
    if (a == 4'd2) b = 4'd1;
    if (a == 4'd3) b = 4'd7;
    if (a[3]) ; else b = b + 4'd2;
    if (1'bx) b = 4'd15;
    if (a) if (b) b = b + 1; else b = 0;
    $display("b=%d", b);
  end
endmodule`, check: wantOutput("b=4\n")},
	{name: "case casez casex", top: "m", src: `module m;
  reg [3:0] s;
  reg [7:0] r;
  integer i;
  initial begin
    for (i = 0; i < 6; i = i + 1) begin
      s = i;
      if (i == 4) s = 4'b1x0z;
      if (i == 5) s = 4'bzzzz;
      r = 0;
      case (s)
        4'd0, 4'd1: r = r + 8'd1;
        4'd2: r = r + 8'd2;
        4'b1x0z: r = r + 8'd3;
      endcase
      case (s)
        4'd1: r = r + 8'd10;
        default: r = r + 8'd20;
      endcase
      casez (s)
        4'b00?1: r = r + 8'd30;
        4'b1?0?: r = r + 8'd40;
      endcase
      casez (s)
        4'b0000: r = r + 8'd50;
        default: r = r + 8'd60;
      endcase
      casex (s)
        4'b001x: r = r + 8'd70;
        4'b11xx: r = r + 8'd80;
      endcase
      casex (s)
        8'b0000_0001: r = r + 8'd90;
        default: ;
      endcase
      case (s + 4'd0)
        4'd15: r = 8'd255;
      endcase
      $display("%d %b %d", i, s, r);
    end
  end
endmodule`},
	{name: "loops", top: "m", src: `module m;
  integer i, j, n;
  reg [3:0] x;
  reg clk;
  initial begin
    n = 0;
    for (i = 0; i < 3; i = i + 1)
      for (j = i; j < 3; j = j + 1) n = n + 1;
    while (n < 20) n = n + 3;
    repeat (3) n = n + 1;
    repeat (x) n = n + 100;
    repeat (0) n = n + 1000;
    $display("n=%d", n);
  end
  initial begin clk = 0; forever #3 clk = ~clk; end
  initial #20 begin $display("clk=%b t=%t", clk, $time); $finish; end
endmodule`},
	{name: "event controls and wait", top: "m", src: `module m;
  reg a, b, c;
  reg [3:0] y, z, cnt;
  always @* y = {a, b, c} + 3'd1;
  always @(posedge a or negedge b) cnt = cnt + 1;
  initial begin
    cnt = 0; a = 0; b = 1; c = 0;
    #1 a = 1;
    #1 b = 0;
    #1 a = 0; b = 1;
    #1 c = 1;
    wait (cnt == 2) z = cnt;
    #1 $display("y=%d cnt=%d z=%d", y, cnt, z);
    wait (c) $display("c high at %t", $time);
  end
  initial wait (a & b & c) $display("all high at %t", $time);
endmodule`},
	{name: "inactive region", top: "m", src: `module m;
  reg [3:0] a;
  initial begin a = 1; #0 $display("after #0 a=%d", a); end
  initial begin $display("first a=%d", a); a = 2; #0 a = 3; end
  initial #1 $display("final a=%d", a);
endmodule`},
	{name: "nonblocking targets with a moving index", top: "m", src: `module m;
  reg [7:0] v;
  reg [3:0] mem [0:3];
  reg [1:0] hi;
  integer i;
  initial begin
    v = 0; i = 1; hi = 0;
    v[i] <= 1'b1;
    mem[i] <= 4'd9;
    v[7:4] <= 4'hA;
    {hi, v[i]} <= 3'b101;
    i = 2;
    #1 $display("v=%b m1=%d m2=%d hi=%b", v, mem[1], mem[2], hi);
  end
endmodule`, check: wantOutput("v=10100100 m1=x m2=9 hi=10\n")},
	{name: "display formats", top: "m", src: `module m;
  reg [7:0] a;
  initial begin
    a = 8'd65;
    $display("%m %c %o %s %% %0d %h %x %b %t %q %", a, a, "str", a, a, a, a, a);
    $display("%s|%s|%S", a, "lit", a);
    $display("%d %d", a);
    $display("no args");
    $display;
    $write("w:%d", a);
    $write(a);
    $display("");
    $display(a, " ", "x", a + 8'd1);
    $strobe("strobe %d", a);
    $error("error %d", a);
  end
endmodule`},
	{name: "display widths before unknown verbs", top: "m", src: `module m;
  reg [7:0] a;
  initial begin
    a = 8'd65;
    $display("%0q|%5.2f|%3%|%2h", a);
  end
endmodule`, check: wantOutput("%q|%.2f|%|41\n")},
	{name: "monitor re-arm and stop", top: "m", src: `module m;
  reg [3:0] a, b;
  initial begin
    a = 0; b = 0;
    $monitor("A a=%d t=%t", a, $time);
    #1 a = 1;
    #1 $monitor("B b=%d %s", b, "s");
    #1 b = 2; a = 3;
    #1 $monitor("C %d", $random % 4);
    #3 $stop;
    $display("unreachable");
  end
endmodule`},
	{name: "unsupported system task", top: "m", src: `module m;
  initial begin $display("before"); $finish; end
endmodule`, mutate: func(d *elab.Design) {
		d.Procs[0].Body.(*vlog.Block).Stmts[1].(*vlog.SysCall).Name = "$bogus"
	}, check: wantErr("2:37: runtime error: unsupported system task $bogus")},
	{name: "always without delay", top: "m", src: `module m;
  reg r;
  initial r = 0;
  always r = ~r;
endmodule`, check: wantErr("4:10: runtime error: always block contains no delay or event control")},
	{name: "event control on a constant", top: "m", src: `module m;
  reg r;
  always @(1'b1) r = 1;
endmodule`, check: wantErr("3:10: runtime error: event control watches no signals")},
	{name: "star control that reads nothing", top: "m", src: `module m;
  always @* ;
endmodule`, check: wantErr("2:10: runtime error: event control watches no signals")},
	{name: "wait on a constant", top: "m", src: `module m;
  initial wait (1'b0) ;
endmodule`, check: wantErr("2:17: runtime error: wait condition watches no signals")},
	{name: "step limit in for", top: "m", src: `module m;
  integer i;
  initial for (i = 0; i >= 0; i = i + 0) ;
endmodule`, check: wantStepLimit},
	{name: "step limit in while", top: "m", src: `module m;
  integer i;
  initial begin i = 0; while (1) i = i + 1; end
endmodule`, check: wantStepLimit},
	{name: "step limit in repeat", top: "m", src: `module m;
  integer i;
  initial repeat (32'hFFFFFFFF) i = 1;
endmodule`, check: wantStepLimit},
	{name: "step limit in forever", top: "m", src: `module m;
  integer i;
  initial forever i = 1;
endmodule`, check: wantStepLimit},
}

// TestCompiledMatchesInterpreterStatements holds the compiled statement
// engine to the interpreter on every statement kind, every runtime error
// path and every source of exec_edge_test.go: the whole Result (output,
// time, step count, finished) and the error text must be identical.
func TestCompiledMatchesInterpreterStatements(t *testing.T) {
	cases := append([]stmtCase(nil), stmtCases...)
	for _, e := range edgeSources {
		cases = append(cases, stmtCase{name: "edge " + e.name, top: e.top, src: e.src})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(interpret bool) (Result, error) {
				// each engine gets its own parse: mutate edits the AST
				f, err := vlog.Parse(c.src)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				d, err := elab.Elaborate(f, c.top, elab.Options{})
				if err != nil {
					t.Fatalf("elaborate: %v", err)
				}
				if c.mutate != nil {
					c.mutate(d)
				}
				return New(d, Options{Interpret: interpret}).Run()
			}
			rc, ec := run(false)
			ri, ei := run(true)
			if errText(ec) != errText(ei) {
				t.Errorf("errors diverged: compiled %q, interpreted %q", errText(ec), errText(ei))
			}
			sameResult(t, "compiled vs interpreted", rc, ri)
			if c.check != nil {
				c.check(t, rc, ec)
			}
		})
	}
}
