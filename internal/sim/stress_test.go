package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// TestManyProcessesStress runs 100 always blocks plus a clock generator
// through thousands of events, checking the coroutine handoff (the
// scheduler resumes each process with next, the process hands back with
// yield when it blocks) and the wakeup machinery under load.
func TestManyProcessesStress(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("module m;\n  reg clk;\n  integer total;\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "  integer c%d;\n", i)
		fmt.Fprintf(&sb, "  always @(posedge clk) c%d = c%d + 1;\n", i, i)
	}
	sb.WriteString("  initial begin\n    clk = 0;\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "    c%d = 0;\n", i)
	}
	sb.WriteString("  end\n")
	sb.WriteString("  always #5 clk = ~clk;\n")
	sb.WriteString(`  initial begin
    repeat (50) @(posedge clk);
    total = c0 + c50 + c99;
    $display("total=%d", total);
    $finish;
  end
`)
	sb.WriteString("endmodule\n")

	f, err := vlog.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(f, "m", elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(d, Options{}).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// every counter saw the same 50 posedges; the sampling initial block
	// runs before or after the counters within the 50th edge, so accept
	// both 147 (3*49) and 150 (3*50)
	if res.Output != "total=150\n" && res.Output != "total=147\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

// TestDeterministicOutputAcrossRuns re-simulates an order-sensitive design
// several times and requires identical output (scheduler determinism).
func TestDeterministicOutputAcrossRuns(t *testing.T) {
	src := `module m;
  reg clk;
  integer a, b;
  always @(posedge clk) a = a + 1;
  always @(posedge clk) b = a; // reads a in the same region: order-sensitive
  initial begin clk = 0; a = 0; b = 0; end
  always #5 clk = ~clk;
  initial begin
    repeat (10) @(posedge clk);
    #1 $display("a=%d b=%d", a, b);
    $finish;
  end
endmodule`
	f, _ := vlog.Parse(src)
	var first string
	for i := 0; i < 5; i++ {
		d, err := elab.Elaborate(f, "m", elab.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(d, Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Output
			continue
		}
		if res.Output != first {
			t.Fatalf("run %d output %q differs from %q", i, res.Output, first)
		}
	}
}
