package sim

import (
	"strings"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// Edge-case coverage for the behavioural interpreter and system tasks.
// Each test's source is a constant so that the statement differential
// test (TestCompiledMatchesInterpreterStatements) runs every one of them
// through both engines.

// edgeSources lists every source in this file with its top module.
var edgeSources = []struct{ name, top, src string }{
	{"MonitorPrintsOnChange", "m", edgeMonitorPrintsOnChange},
	{"MonitorRearmsReplacesOld", "m", edgeMonitorRearmsReplacesOld},
	{"CasexWildcards", "m", edgeCasexWildcards},
	{"RepeatWithUnknownCountRunsZero", "m", edgeRepeatWithUnknownCountRunsZero},
	{"DelayWithIdentifierAmount", "m", edgeDelayWithIdentifierAmount},
	{"OutOfBoundsWritesAreDiscarded", "m", edgeOutOfBoundsWritesAreDiscarded},
	{"OutOfBoundsReadsAreX", "m", edgeOutOfBoundsReadsAreX},
	{"UnknownIndexReadAndWrite", "m", edgeUnknownIndexReadAndWrite},
	{"StopActsLikeFinish", "m", edgeStopActsLikeFinish},
	{"OutputLimit", "m", edgeOutputLimit},
	{"ConcatLValueNonblocking", "m", edgeConcatLValueNonblocking},
	{"WhileLoopAndBlockingSemantics", "m", edgeWhileLoopAndBlockingSemantics},
	{"NamedBlock", "m", edgeNamedBlock},
	{"SignedDisplayOfInteger", "m", edgeSignedDisplayOfInteger},
	{"DisplayWithoutFormatString", "m", edgeDisplayWithoutFormatString},
	{"IntraAssignmentDelay", "m", edgeIntraAssignmentDelay},
	{"HierarchicalTwoLevels", "tb", edgeHierarchicalTwoLevels},
}

const edgeMonitorPrintsOnChange = `module m;
  reg [3:0] v;
  initial $monitor("t=%t v=%d", $time, v);
  initial begin
    v = 1;
    #5 v = 2;
    #5 v = 2; // no change: no extra line
    #5 v = 7;
    #1 $finish;
  end
endmodule`

func TestMonitorPrintsOnChange(t *testing.T) {
	res := runTop(t, edgeMonitorPrintsOnChange, "m", Options{})
	want := "t=0 v=1\nt=5 v=2\nt=15 v=7\n"
	if res.Output != want {
		t.Fatalf("monitor output = %q, want %q", res.Output, want)
	}
}

const edgeMonitorRearmsReplacesOld = `module m;
  reg a, b;
  initial begin
    a = 0; b = 0;
    $monitor("A=%b", a);
    #2 $monitor("B=%b", b);
    #2 a = 1; // no longer monitored
    #2 b = 1;
    #1 $finish;
  end
endmodule`

func TestMonitorRearmsReplacesOld(t *testing.T) {
	res := runTop(t, edgeMonitorRearmsReplacesOld, "m", Options{})
	if strings.Contains(res.Output, "A=1") {
		t.Fatalf("old monitor fired after re-arm: %q", res.Output)
	}
	if !strings.Contains(res.Output, "B=1") {
		t.Fatalf("new monitor missing: %q", res.Output)
	}
}

const edgeCasexWildcards = `module m;
  reg [3:0] v;
  reg [1:0] r;
  initial begin
    v = 4'b10x1; // x bits are wildcards under casex
    casex (v)
      4'b1001: r = 2'd1;
      default: r = 2'd3;
    endcase
    $display("r=%d", r);
  end
endmodule`

func TestCasexWildcards(t *testing.T) {
	res := runTop(t, edgeCasexWildcards, "m", Options{})
	if res.Output != "r=1\n" {
		t.Fatalf("casex output = %q", res.Output)
	}
}

const edgeRepeatWithUnknownCountRunsZero = `module m;
  reg [3:0] n;
  integer i;
  initial begin
    i = 0;
    repeat (n) i = i + 1; // n is x: repeat count is 0
    $display("i=%d", i);
  end
endmodule`

func TestRepeatWithUnknownCountRunsZero(t *testing.T) {
	res := runTop(t, edgeRepeatWithUnknownCountRunsZero, "m", Options{})
	if res.Output != "i=0\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeDelayWithIdentifierAmount = `module m;
  parameter STEP = 7;
  initial begin
    #STEP $display("t=%t", $time);
  end
endmodule`

func TestDelayWithIdentifierAmount(t *testing.T) {
	res := runTop(t, edgeDelayWithIdentifierAmount, "m", Options{})
	if res.Output != "t=7\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeOutOfBoundsWritesAreDiscarded = `module m;
  reg [3:0] v;
  reg [7:0] mem [3:0];
  integer i;
  initial begin
    v = 4'b0000;
    i = 9;
    v[i] = 1'b1;       // bit 9 of a 4-bit reg: discarded
    mem[i] = 8'hFF;    // address 9 of a 4-word memory: discarded
    $display("v=%b m0=%h", v, mem[0]);
  end
endmodule`

func TestOutOfBoundsWritesAreDiscarded(t *testing.T) {
	res := runTop(t, edgeOutOfBoundsWritesAreDiscarded, "m", Options{})
	if res.Output != "v=0000 m0=xx\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeOutOfBoundsReadsAreX = `module m;
  reg [3:0] v;
  reg [7:0] mem [3:0];
  initial begin
    v = 4'b1111;
    $display("b=%b w=%h", v[9], mem[9]);
  end
endmodule`

func TestOutOfBoundsReadsAreX(t *testing.T) {
	res := runTop(t, edgeOutOfBoundsReadsAreX, "m", Options{})
	if res.Output != "b=x w=xx\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeUnknownIndexReadAndWrite = `module m;
  reg [3:0] sel;
  reg [7:0] v;
  initial begin
    v = 8'hAA;
    $display("bit=%b", v[sel]); // sel is x
    v[sel] = 1'b0;              // discarded
    $display("v=%h", v);
  end
endmodule`

func TestUnknownIndexReadAndWrite(t *testing.T) {
	res := runTop(t, edgeUnknownIndexReadAndWrite, "m", Options{})
	if res.Output != "bit=x\nv=aa\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeStopActsLikeFinish = `module m;
  initial begin
    $display("before");
    $stop;
    $display("after");
  end
endmodule`

func TestStopActsLikeFinish(t *testing.T) {
	res := runTop(t, edgeStopActsLikeFinish, "m", Options{})
	if res.Output != "before\n" || !res.Finished {
		t.Fatalf("output=%q finished=%v", res.Output, res.Finished)
	}
}

const edgeOutputLimit = `module m;
  integer i;
  initial for (i = 0; i < 100000; i = i + 1) $display("spam line %d", i);
endmodule`

func TestOutputLimit(t *testing.T) {
	f, _ := vlog.Parse(edgeOutputLimit)
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(d, Options{}).Run()
	if err != ErrOutputLimit {
		t.Fatalf("err = %v", err)
	}
	if len(res.Output) > maxOutput || len(res.Output) < maxOutput-64 {
		t.Fatalf("captured %d bytes, want just under the %d-byte limit", len(res.Output), maxOutput)
	}
}

const edgeConcatLValueNonblocking = `module m;
  reg clk;
  reg c;
  reg [3:0] s;
  initial begin
    clk = 0;
    #1 clk = 1;
    #1 $display("c=%b s=%d", c, s);
  end
  always @(posedge clk) {c, s} <= 5'd17;
endmodule`

func TestConcatLValueNonblocking(t *testing.T) {
	res := runTop(t, edgeConcatLValueNonblocking, "m", Options{})
	if res.Output != "c=1 s=1\n" { // 17 = 1_0001
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeWhileLoopAndBlockingSemantics = `module m;
  integer i, total;
  initial begin
    i = 0; total = 0;
    while (i < 5) begin
      total = total + i;
      i = i + 1;
    end
    $display("total=%d", total);
  end
endmodule`

func TestWhileLoopAndBlockingSemantics(t *testing.T) {
	res := runTop(t, edgeWhileLoopAndBlockingSemantics, "m", Options{})
	if res.Output != "total=10\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeNamedBlock = `module m;
  initial begin : main_blk
    $display("named ok");
  end
endmodule`

func TestNamedBlock(t *testing.T) {
	res := runTop(t, edgeNamedBlock, "m", Options{})
	if res.Output != "named ok\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeSignedDisplayOfInteger = `module m;
  integer i;
  initial begin
    i = 0 - 5;
    $display("i=%d", i);
  end
endmodule`

func TestSignedDisplayOfInteger(t *testing.T) {
	res := runTop(t, edgeSignedDisplayOfInteger, "m", Options{})
	if res.Output != "i=-5\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeDisplayWithoutFormatString = `module m;
  reg [3:0] a;
  initial begin
    a = 4'd7;
    $display(a, "and", a + 4'd1);
  end
endmodule`

func TestDisplayWithoutFormatString(t *testing.T) {
	res := runTop(t, edgeDisplayWithoutFormatString, "m", Options{})
	if res.Output != "7 and 8\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeIntraAssignmentDelay = `module m;
  reg [3:0] v;
  initial begin
    v = #4 4'd9;
    $display("t=%t v=%d", $time, v);
  end
endmodule`

func TestIntraAssignmentDelay(t *testing.T) {
	res := runTop(t, edgeIntraAssignmentDelay, "m", Options{})
	if res.Output != "t=4 v=9\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

const edgeHierarchicalTwoLevels = `module leaf(input [3:0] a, output [3:0] y);
  assign y = a + 1;
endmodule
module mid(input [3:0] a, output [3:0] y);
  wire [3:0] t;
  leaf l0 (.a(a), .y(t));
  leaf l1 (.a(t), .y(y));
endmodule
module tb;
  reg [3:0] x;
  wire [3:0] y;
  mid m0 (.a(x), .y(y));
  initial begin
    x = 4'd3;
    #1 $display("y=%d", y);
  end
endmodule`

func TestHierarchicalTwoLevels(t *testing.T) {
	src := edgeHierarchicalTwoLevels
	res := runTop(t, src, "tb", Options{})
	if res.Output != "y=5\n" {
		t.Fatalf("output = %q", res.Output)
	}
}
