package sim

import (
	"strings"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// runTop parses, elaborates and simulates src with the given top module.
func runTop(t *testing.T, src, top string, opts Options) Result {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := elab.Elaborate(f, top, elab.Options{})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	res, err := New(d, opts).Run()
	if err != nil {
		t.Fatalf("run: %v (output so far: %q)", err, res.Output)
	}
	return res
}

func TestInitialDisplay(t *testing.T) {
	res := runTop(t, `module m; initial $display("hello %d", 8'd42); endmodule`, "m", Options{})
	if res.Output != "hello 42\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestDelayAndTime(t *testing.T) {
	res := runTop(t, `module m;
  initial begin
    #5 $display("t=%t", $time);
    #7 $display("t=%t", $time);
    $finish;
  end
endmodule`, "m", Options{})
	if res.Output != "t=5\nt=12\n" {
		t.Fatalf("output = %q", res.Output)
	}
	if !res.Finished || res.Time != 12 {
		t.Fatalf("finished=%v time=%d", res.Finished, res.Time)
	}
}

func TestContinuousAssignPropagation(t *testing.T) {
	res := runTop(t, `module m;
  reg a;
  wire y;
  assign y = ~a;
  initial begin
    a = 0;
    #1 $display("y=%b", y);
    a = 1;
    #1 $display("y=%b", y);
  end
endmodule`, "m", Options{})
	if res.Output != "y=1\ny=0\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestClockGeneratorAndEdges(t *testing.T) {
	res := runTop(t, `module m;
  reg clk;
  integer n;
  always #5 clk = ~clk;
  initial begin
    clk = 0; n = 0;
    repeat (4) begin
      @(posedge clk);
      n = n + 1;
    end
    $display("edges=%d at %t", n, $time);
    $finish;
  end
endmodule`, "m", Options{})
	if res.Output != "edges=4 at 35\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestNonblockingSwap(t *testing.T) {
	res := runTop(t, `module m;
  reg clk;
  reg [3:0] a, b;
  initial begin
    clk = 0; a = 1; b = 2;
    #1 clk = 1;
    #1 $display("a=%d b=%d", a, b);
  end
  always @(posedge clk) begin
    a <= b;
    b <= a;
  end
endmodule`, "m", Options{})
	if res.Output != "a=2 b=1\n" {
		t.Fatalf("swap failed: %q", res.Output)
	}
}

func TestBlockingVsNonblockingOrdering(t *testing.T) {
	// classic: blocking sees updated value within the same block
	res := runTop(t, `module m;
  reg [3:0] x, y;
  initial begin
    x = 1;
    x = x + 1;
    y = x;
    $display("x=%d y=%d", x, y);
  end
endmodule`, "m", Options{})
	if res.Output != "x=2 y=2\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestXPropagationAtStartup(t *testing.T) {
	res := runTop(t, `module m;
  reg [3:0] q;
  initial $display("q=%b sum=%b", q, q + 4'd1);
endmodule`, "m", Options{})
	if res.Output != "q=xxxx sum=xxxx\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestHierarchyCounter(t *testing.T) {
	src := `module counter(input clk, input reset, output reg [3:0] q);
  always @(posedge clk) begin
    if (reset) q <= 4'd1;
    else if (q == 4'd12) q <= 4'd1;
    else q <= q + 4'd1;
  end
endmodule
module tb;
  reg clk, reset;
  wire [3:0] q;
  integer errors;
  counter dut(.clk(clk), .reset(reset), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; reset = 1; errors = 0;
    @(posedge clk);
    #1 if (q !== 4'd1) errors = errors + 1;
    reset = 0;
    repeat (12) @(posedge clk);
    #1 if (q !== 4'd1) errors = errors + 1; // wrapped 12 -> 1
    if (errors == 0) $display("RESULT: PASS");
    else $display("RESULT: FAIL errors=%d q=%d", errors, q);
    $finish;
  end
endmodule`
	res := runTop(t, src, "tb", Options{})
	if !strings.Contains(res.Output, "RESULT: PASS") {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestCaseStatement(t *testing.T) {
	res := runTop(t, `module m;
  reg [1:0] sel;
  reg [3:0] out;
  initial begin
    sel = 2'b10;
    case (sel)
      2'b00: out = 4'd0;
      2'b01: out = 4'd1;
      2'b10: out = 4'd2;
      default: out = 4'd15;
    endcase
    $display("out=%d", out);
    sel = 2'b11;
    case (sel)
      2'b00, 2'b01: out = 4'd7;
      default: out = 4'd9;
    endcase
    $display("out=%d", out);
  end
endmodule`, "m", Options{})
	if res.Output != "out=2\nout=9\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestCasezWildcard(t *testing.T) {
	res := runTop(t, `module m;
  reg [3:0] in;
  reg [1:0] pos;
  initial begin
    in = 4'b0100;
    casez (in)
      4'bzzz1: pos = 2'd0;
      4'bzz1z: pos = 2'd1;
      4'bz1zz: pos = 2'd2;
      4'b1zzz: pos = 2'd3;
      default: pos = 2'd0;
    endcase
    $display("pos=%d", pos);
  end
endmodule`, "m", Options{})
	if res.Output != "pos=2\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	res := runTop(t, `module m;
  reg [7:0] mem [15:0];
  integer i;
  initial begin
    for (i = 0; i < 16; i = i + 1) mem[i] = i * 3;
    $display("m5=%d m15=%d", mem[5], mem[15]);
  end
endmodule`, "m", Options{})
	if res.Output != "m5=15 m15=45\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestBitAndPartSelects(t *testing.T) {
	res := runTop(t, `module m;
  reg [7:0] v;
  initial begin
    v = 8'b1010_0110;
    $display("b0=%b b7=%b mid=%b", v[0], v[7], v[5:2]);
    v[0] = 1'b1;
    v[7:6] = 2'b01;
    $display("v=%b", v);
  end
endmodule`, "m", Options{})
	if res.Output != "b0=0 b7=1 mid=1001\nv=01100111\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestConcatLValueCarry(t *testing.T) {
	// the paper's half-adder idiom: {carry, sum} = a + b with 1-bit a,b
	res := runTop(t, `module m;
  reg a, b, carry, sum;
  initial begin
    a = 1; b = 1;
    {carry, sum} = a + b;
    $display("c=%b s=%b", carry, sum);
  end
endmodule`, "m", Options{})
	if res.Output != "c=1 s=0\n" {
		t.Fatalf("carry lost: %q", res.Output)
	}
}

func TestSignedArithmeticAndOverflow(t *testing.T) {
	res := runTop(t, `module m;
  reg signed [7:0] a, b, s;
  reg ovf;
  initial begin
    a = 8'sd100; b = 8'sd100;
    s = a + b;
    ovf = (a[7] == b[7]) && (s[7] != a[7]);
    $display("s=%d ovf=%b", s, ovf);
    a = -8'sd100; b = 8'sd50;
    s = a + b;
    $display("s=%d", s);
  end
endmodule`, "m", Options{})
	if res.Output != "s=-56 ovf=1\ns=-50\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestArithmeticShiftRight(t *testing.T) {
	res := runTop(t, `module m;
  reg signed [7:0] v;
  reg [7:0] u;
  initial begin
    v = -8'sd64;
    u = 8'd192;
    $display("a=%d l=%d", v >>> 2, u >> 2);
  end
endmodule`, "m", Options{})
	if res.Output != "a=-16 l=48\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestWaitStatement(t *testing.T) {
	res := runTop(t, `module m;
  reg go;
  initial begin
    go = 0;
    #10 go = 1;
  end
  initial begin
    wait (go);
    $display("went at %t", $time);
  end
endmodule`, "m", Options{})
	if res.Output != "went at 10\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestStarSensitivity(t *testing.T) {
	res := runTop(t, `module m;
  reg [3:0] a, b;
  reg [3:0] sum;
  always @(*) sum = a + b;
  initial begin
    a = 1; b = 2;
    #1 $display("sum=%d", sum);
    b = 9;
    #1 $display("sum=%d", sum);
  end
endmodule`, "m", Options{})
	if res.Output != "sum=3\nsum=10\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestForeverWithFinish(t *testing.T) {
	res := runTop(t, `module m;
  reg clk;
  initial clk = 0;
  initial forever #5 clk = ~clk;
  initial begin
    #23 $display("t=%t clk=%b", $time, clk);
    $finish;
  end
endmodule`, "m", Options{})
	if res.Output != "t=23 clk=0\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestNegedgeDetection(t *testing.T) {
	res := runTop(t, `module m;
  reg clk;
  initial begin
    clk = 0;
    #5 clk = 1;
    #5 clk = 0;
    #5 $finish;
  end
  initial begin
    @(negedge clk) $display("neg at %t", $time);
  end
endmodule`, "m", Options{})
	if res.Output != "neg at 10\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestStepLimitOnRunawayLoop(t *testing.T) {
	f, err := vlog.Parse(`module m; integer i; initial begin i = 0; while (1) i = i + 1; end endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(d, Options{}).Run()
	if err != ErrStepLimit {
		t.Fatalf("err = %v", err)
	}
	if res.Steps != maxSteps+1 {
		t.Fatalf("stopped after %d steps, want the %d-step budget plus the step that broke it", res.Steps, maxSteps)
	}
}

func TestCombinationalLoopHitsStepLimit(t *testing.T) {
	// a === 1'b0 is always 0/1 even from x, so this ring oscillates in
	// zero time and must be cut off by the step budget
	f, _ := vlog.Parse(`module m; wire a; assign a = (a === 1'b0) ? 1'b1 : 1'b0; endmodule`)
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(d, Options{}).Run()
	if err != ErrStepLimit {
		t.Fatalf("err = %v", err)
	}
	if res.Time != 0 || res.Steps != maxSteps+1 {
		t.Fatalf("stopped at time %d after %d steps, want time 0 after %d", res.Time, res.Steps, maxSteps+1)
	}
}

func TestXLatchedCombinationalLoopStabilizes(t *testing.T) {
	// ~x is x, so a pure inverter loop settles at x instead of spinning
	res := runTop(t, `module m; wire a; assign a = ~a; initial #1 $display("a=%b", a); endmodule`, "m", Options{})
	if res.Output != "a=x\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestAlwaysWithoutEventIsError(t *testing.T) {
	f, _ := vlog.Parse(`module m; reg r; always r = ~r; endmodule`)
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(d, Options{}).Run()
	if err == nil || !strings.Contains(err.Error(), "always block") {
		t.Fatalf("err = %v", err)
	}
}

func TestTimeLimit(t *testing.T) {
	f, _ := vlog.Parse(`module m; reg clk; initial clk = 0; always #5 clk = ~clk; endmodule`)
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(d, Options{MaxTime: 1000}).Run()
	if err != ErrTimeLimit {
		t.Fatalf("err = %v", err)
	}
}

func TestRandomDeterminism(t *testing.T) {
	src := `module m; integer i; initial begin i = $random; $display("%d", i); end endmodule`
	r1 := runTop(t, src, "m", Options{RandomSeed: 7})
	r2 := runTop(t, src, "m", Options{RandomSeed: 7})
	r3 := runTop(t, src, "m", Options{RandomSeed: 8})
	if r1.Output != r2.Output {
		t.Fatal("same seed differs")
	}
	if r1.Output == r3.Output {
		t.Fatal("different seeds agree")
	}
}

func TestCaseEqualityInTB(t *testing.T) {
	res := runTop(t, `module m;
  reg [3:0] q;
  initial begin
    if (q === 4'bxxxx) $display("is x");
    q = 4'd5;
    if (q !== 4'd5) $display("bad");
    else $display("good");
  end
endmodule`, "m", Options{})
	if res.Output != "is x\ngood\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestParameterizedInstance(t *testing.T) {
	src := `module add1 #(parameter W = 4)(input [W-1:0] a, output [W-1:0] y);
  assign y = a + 1;
endmodule
module tb;
  reg [7:0] x;
  wire [7:0] y;
  add1 #(.W(8)) dut (.a(x), .y(y));
  initial begin
    x = 8'd41;
    #1 $display("y=%d", y);
  end
endmodule`
	res := runTop(t, src, "tb", Options{})
	if res.Output != "y=42\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestShiftRegister64Bit(t *testing.T) {
	res := runTop(t, `module m;
  reg clk;
  reg signed [63:0] sr;
  initial begin
    clk = 0;
    sr = 64'h8000_0000_0000_0000;
    #1 $display("msb=%b next=%h", sr[63], sr >>> 1);
  end
endmodule`, "m", Options{})
	if res.Output != "msb=1 next=c000000000000000\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestLFSRStep(t *testing.T) {
	// taps at 3 and 5 (1-indexed bits 2 and 4): one manual step
	res := runTop(t, `module m;
  reg [4:0] s;
  wire fb;
  assign fb = s[2] ^ s[4];
  initial begin
    s = 5'b00001;
    #1 s = {s[3:0], fb};
    #1 $display("s=%b", s);
  end
endmodule`, "m", Options{})
	if res.Output != "s=00010\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestEventOrList(t *testing.T) {
	res := runTop(t, `module m;
  reg a, b;
  integer hits;
  always @(a or b) hits = hits + 1;
  initial begin
    hits = 0;
    a = 0; b = 0;
    #1 a = 1;
    #1 b = 1;
    #1 $display("hits=%d", hits);
  end
endmodule`, "m", Options{})
	// the x->0 inits coalesce into one wakeup (the block is pending, not
	// re-armed, when b changes), then one hit per later change
	if res.Output != "hits=3\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestWriteNoNewline(t *testing.T) {
	res := runTop(t, `module m; initial begin $write("a"); $write("b"); $display(""); end endmodule`, "m", Options{})
	if res.Output != "ab\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestFormatSpecifiers(t *testing.T) {
	res := runTop(t, `module m;
  reg [7:0] v;
  initial begin
    v = 8'hA5;
    $display("%d|%b|%h|%0d|%%", v, v, v, v);
  end
endmodule`, "m", Options{})
	if res.Output != "165|10100101|a5|165|%\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestInoutRejected(t *testing.T) {
	f, _ := vlog.Parse(`module c(inout a); endmodule
module m; wire w; c c0 (.a(w)); endmodule`)
	if _, err := elab.Elaborate(f, "m", elab.Options{}); err == nil {
		t.Fatal("inout connection should be rejected")
	}
}

func TestRegDeclInitializer(t *testing.T) {
	res := runTop(t, `module m;
  reg [3:0] r = 4'd9;
  initial $display("r=%d", r);
endmodule`, "m", Options{})
	if res.Output != "r=9\n" {
		t.Fatalf("output = %q", res.Output)
	}
}
