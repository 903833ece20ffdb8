package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// File is one corpus file.
type File struct {
	Path    string
	Content string
}

// The duplication/noise handles the paper's BigQuery pull exhibits: the
// fraction of generated files of each kind.
const (
	dupShare      = 0.12 // exact duplicates of earlier files
	nearDupShare  = 0.08 // near-duplicates (renames/comments)
	noiseShare    = 0.06 // non-Verilog files
	oversizeShare = 0.04 // files padded past the size filter
)

// GitHubOptions parameterize the synthetic GitHub snapshot.
type GitHubOptions struct {
	NumFiles int // total files to generate; 0 = 500 (1:100 scale)
	Seed     int64
}

func (o GitHubOptions) numFiles() int {
	if o.NumFiles <= 0 {
		return 500
	}
	return o.NumFiles
}

// GenerateGitHub produces the synthetic repository snapshot.
func GenerateGitHub(opts GitHubOptions) []File {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.numFiles()
	files := make([]File, 0, n)
	var verilogPool []string // contents eligible for duplication
	for i := 0; i < n; i++ {
		r := rng.Float64()
		var content string
		switch {
		case r < dupShare && len(verilogPool) > 0:
			content = verilogPool[rng.Intn(len(verilogPool))]
		case r < dupShare+nearDupShare && len(verilogPool) > 0:
			content = nearDuplicate(verilogPool[rng.Intn(len(verilogPool))], rng)
		case r < dupShare+nearDupShare+noiseShare:
			content = noiseFile(rng)
		case r < dupShare+nearDupShare+noiseShare+oversizeShare:
			content = oversizeFile(rng)
		default:
			content = GenerateModule(rng)
			verilogPool = append(verilogPool, content)
		}
		files = append(files, File{
			Path:    fmt.Sprintf("repo%03d/src/file%04d.v", rng.Intn(60), i),
			Content: content,
		})
	}
	return files
}

// archetype generators -----------------------------------------------------

var modulePrefixes = []string{
	"counter", "adder", "mux", "fifo_ctrl", "fsm", "shifter", "ram", "alu",
	"parity", "gray", "regfile", "edge_det", "divider", "uart_tx", "pwm",
	"debounce", "sync", "arbiter", "crc", "timer",
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

func freshName(rng *rand.Rand) string {
	return fmt.Sprintf("%s_%d", pick(rng, modulePrefixes), rng.Intn(1000))
}

// GenerateModule emits one synthesizable Verilog module from a random
// archetype. All archetypes emit code inside the frontend's subset, so the
// generated corpus parses and elaborates (verified by tests).
func GenerateModule(rng *rand.Rand) string {
	gens := []func(*rand.Rand) string{
		genCounter, genAdder, genMux, genShifter, genFSM, genRegister,
		genParity, genEdgeDetector, genRAM, genALU, genGrayEncoder, genDecoder,
	}
	return gens[rng.Intn(len(gens))](rng)
}

func genCounter(rng *rand.Rand) string {
	w := 2 + rng.Intn(14)
	name := freshName(rng)
	limit := 1 + rng.Intn(1<<uint(min(w, 10)))
	return fmt.Sprintf(`// %d-bit counter with synchronous reset
module %s(input clk, input reset, output reg [%d:0] q);
  always @(posedge clk) begin
    if (reset) q <= 0;
    else if (q == %d) q <= 0;
    else q <= q + 1;
  end
endmodule
`, w, name, w-1, limit)
}

func genAdder(rng *rand.Rand) string {
	w := 2 + rng.Intn(30)
	name := freshName(rng)
	return fmt.Sprintf(`// %d-bit adder with carry out
module %s(input [%d:0] a, input [%d:0] b, output [%d:0] sum, output cout);
  assign {cout, sum} = a + b;
endmodule
`, w, name, w-1, w-1, w-1)
}

func genMux(rng *rand.Rand) string {
	w := 1 + rng.Intn(16)
	name := freshName(rng)
	return fmt.Sprintf(`// 2-to-1 multiplexer, %d bits wide
module %s(input [%d:0] a, input [%d:0] b, input sel, output [%d:0] y);
  assign y = sel ? b : a;
endmodule
`, w, name, w-1, w-1, w-1)
}

func genShifter(rng *rand.Rand) string {
	w := 4 + rng.Intn(28)
	name := freshName(rng)
	return fmt.Sprintf(`// logical shifter
module %s(input [%d:0] din, input [3:0] amt, input dir, output reg [%d:0] dout);
  always @(*) begin
    if (dir) dout = din >> amt;
    else dout = din << amt;
  end
endmodule
`, name, w-1, w-1)
}

func genFSM(rng *rand.Rand) string {
	name := freshName(rng)
	return fmt.Sprintf(`// two-process moore state machine
module %s(input clk, input reset, input go, output busy);
  parameter IDLE = 0, RUN = 1, DONE = 2;
  reg [1:0] state, next;
  always @(posedge clk or posedge reset) begin
    if (reset) state <= IDLE;
    else state <= next;
  end
  always @(state or go) begin
    case (state)
      IDLE: next = go ? RUN : IDLE;
      RUN: next = DONE;
      DONE: next = IDLE;
      default: next = IDLE;
    endcase
  end
  assign busy = (state == RUN);
endmodule
`, name)
}

func genRegister(rng *rand.Rand) string {
	w := 1 + rng.Intn(32)
	name := freshName(rng)
	return fmt.Sprintf(`// %d-bit register with enable
module %s(input clk, input en, input [%d:0] d, output reg [%d:0] q);
  always @(posedge clk) begin
    if (en) q <= d;
  end
endmodule
`, w, name, w-1, w-1)
}

func genParity(rng *rand.Rand) string {
	w := 2 + rng.Intn(30)
	name := freshName(rng)
	return fmt.Sprintf(`// parity generator
module %s(input [%d:0] data, output even, output odd);
  assign odd = ^data;
  assign even = ~^data;
endmodule
`, name, w-1)
}

func genEdgeDetector(rng *rand.Rand) string {
	name := freshName(rng)
	return fmt.Sprintf(`// rising edge detector
module %s(input clk, input sig, output pulse);
  reg prev;
  always @(posedge clk) prev <= sig;
  assign pulse = sig & ~prev;
endmodule
`, name)
}

func genRAM(rng *rand.Rand) string {
	aw := 2 + rng.Intn(6)
	dw := 4 + rng.Intn(12)
	name := freshName(rng)
	return fmt.Sprintf(`// simple synchronous ram
module %s(input clk, input we, input [%d:0] addr, input [%d:0] din, output reg [%d:0] dout);
  reg [%d:0] mem [%d:0];
  always @(posedge clk) begin
    if (we) mem[addr] <= din;
    dout <= mem[addr];
  end
endmodule
`, name, aw-1, dw-1, dw-1, dw-1, (1<<uint(aw))-1)
}

func genALU(rng *rand.Rand) string {
	w := 4 + rng.Intn(12)
	name := freshName(rng)
	return fmt.Sprintf(`// tiny alu
module %s(input [%d:0] a, input [%d:0] b, input [1:0] op, output reg [%d:0] y);
  always @(*) begin
    case (op)
      2'b00: y = a + b;
      2'b01: y = a - b;
      2'b10: y = a & b;
      default: y = a | b;
    endcase
  end
endmodule
`, name, w-1, w-1, w-1)
}

func genGrayEncoder(rng *rand.Rand) string {
	w := 3 + rng.Intn(13)
	name := freshName(rng)
	return fmt.Sprintf(`// binary to gray converter
module %s(input [%d:0] bin, output [%d:0] gray);
  assign gray = bin ^ (bin >> 1);
endmodule
`, name, w-1, w-1)
}

func genDecoder(rng *rand.Rand) string {
	name := freshName(rng)
	return fmt.Sprintf(`// 2-to-4 decoder with enable
module %s(input [1:0] sel, input en, output reg [3:0] y);
  always @(*) begin
    if (!en) y = 4'b0000;
    else begin
      case (sel)
        2'd0: y = 4'b0001;
        2'd1: y = 4'b0010;
        2'd2: y = 4'b0100;
        default: y = 4'b1000;
      endcase
    end
  end
endmodule
`, name)
}

// mutation helpers for duplicates and noise --------------------------------

// nearDuplicate perturbs a file without changing its structure: comment
// churn, whitespace, and a module rename — the kind of duplication MinHash
// is meant to catch.
func nearDuplicate(content string, rng *rand.Rand) string {
	out := content
	if rng.Intn(2) == 0 {
		out = "// forked copy, do not edit\n" + out
	}
	out = strings.Replace(out, "module ", fmt.Sprintf("module copy%d_", rng.Intn(100)), 1)
	if rng.Intn(2) == 0 {
		out = strings.ReplaceAll(out, "  ", "    ")
	}
	return out
}

func noiseFile(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return "# build notes\nall:\n\tmake sim\n"
	case 1:
		return fmt.Sprintf("{\"name\": \"pkg%d\", \"version\": \"1.0.%d\"}\n", rng.Intn(50), rng.Intn(9))
	default:
		return "This repository contains miscellaneous lab notes without any code.\n"
	}
}

func oversizeFile(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("// auto-generated netlist dump\n")
	sb.WriteString("module big_netlist(input clk);\n")
	i := 0
	for sb.Len() <= maxFileBytes {
		fmt.Fprintf(&sb, "  wire n%d; assign n%d = 1'b%d;\n", i, i, rng.Intn(2))
		i++
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
