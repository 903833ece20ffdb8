package verdict

import (
	"fmt"
	"testing"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
)

// TestCompiledPlansMatchInterpreter is the verdict-equivalence contract of
// the compiled expression plans: for every problem and prompt level, the
// full pipeline (truncate, parse, compile-check, elaborate, simulate the
// self-checking bench) must produce a byte-identical Result.Output and the
// same verdict whether the simulator executes compiled plans (the default)
// or the AST-walking interpreter (Options.Interpret).
func TestCompiledPlansMatchInterpreter(t *testing.T) {
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			oc, rc := evaluateSim(p, l, p.RefBody, sim.Options{})
			oi, ri := evaluateSim(p, l, p.RefBody, sim.Options{Interpret: true})
			if oc != oi {
				t.Errorf("problem %d/%s: verdict diverged: compiled %+v, interpreted %+v",
					p.Number, l, oc, oi)
			}
			if rc.Output != ri.Output {
				t.Errorf("problem %d/%s: output diverged:\ncompiled:\n%s\ninterpreted:\n%s",
					p.Number, l, rc.Output, ri.Output)
			}
			if rc.Time != ri.Time || rc.Finished != ri.Finished || rc.Steps != ri.Steps {
				t.Errorf("problem %d/%s: result metadata diverged: compiled %+v, interpreted %+v",
					p.Number, l, rc, ri)
			}
			if !oc.Passes {
				t.Errorf("problem %d/%s: reference body should pass, got %+v", p.Number, l, oc)
			}
		}
	}
}

// TestCompiledPlansMatchInterpreterOnFailures extends the differential
// check to non-passing verdict paths: a near-miss that compiles but fails
// the bench, and garbage that does not compile.
func TestCompiledPlansMatchInterpreterOnFailures(t *testing.T) {
	p := problems.ByNumber(6)
	cases := []struct {
		name, body string
	}{
		{"near-miss", "  always @(posedge clk) q <= q;\nendmodule\n"},
		{"broken", "  garbage tokens\n"},
	}
	for _, c := range cases {
		oc, rc := evaluateSim(p, problems.LevelMedium, c.body, sim.Options{})
		oi, ri := evaluateSim(p, problems.LevelMedium, c.body, sim.Options{Interpret: true})
		if oc != oi || rc.Output != ri.Output {
			t.Errorf("%s: engines diverged: %+v/%q vs %+v/%q", c.name, oc, rc.Output, oi, ri.Output)
		}
	}
}

// TestTestbenchTierBounded pins the testbench tier's bound: inserting
// more distinct bench texts than the cap must not grow the tier past it.
func TestTestbenchTierBounded(t *testing.T) {
	base := problems.ByNumber(1)
	for i := 0; i < tbCap+32; i++ {
		if _, err := testbenchFor(fmt.Sprintf("module tb_%d; endmodule\n", i)).parsed(); err != nil {
			t.Fatalf("bench %d: %v", i, err)
		}
	}
	if st := testbenches.Stats(); st.Entries > tbCap || st.Bytes > tbCap {
		t.Fatalf("tier grew past the cap: %+v (cap %d)", st, tbCap)
	}
	// an evicted bench re-parses transparently
	if _, err := testbenchFor(base.Testbench).parsed(); err != nil {
		t.Fatalf("re-parse after eviction: %v", err)
	}
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

// TestTruncateTokenBoundary pins the Truncate bugfix: endmodule inside
// comments, strings, or identifiers must not cut the completion.
func TestTruncateTokenBoundary(t *testing.T) {
	body := "  // no endmodule yet\n  assign y = a;\nendmodule\n"
	if got := Truncate("  // no endmodule yet\n  assign y = a;\nendmodule\ntrailing junk"); got != body {
		t.Errorf("line comment: truncated at the comment, got %q", got)
	}
	in := "  /* endmodule */ assign y = a;\nendmodule"
	if got := Truncate(in); got != in+"\n" {
		t.Errorf("block comment: got %q", got)
	}
	in = "  initial $display(\"endmodule\");\nendmodule"
	if got := Truncate(in); got != in+"\n" {
		t.Errorf("string literal: got %q", got)
	}
	in = "  wire my_endmodule;\n  wire endmodule2;\nendmodule"
	if got := Truncate(in); got != in+"\n" {
		t.Errorf("identifier: got %q", got)
	}
	// the keyword at the very start and end of the text still terminates
	if got := Truncate("endmodule"); got != "endmodule\n" {
		t.Errorf("bare keyword: got %q", got)
	}
	// and an endmodule-mentioning comment must not flip a passing verdict
	p := problems.ByNumber(1)
	o := Evaluate(p, problems.LevelLow, "  // endmodule comes later\n"+p.RefBody)
	if !o.Passes {
		t.Error("comment mentioning endmodule flipped a passing candidate")
	}
}

// TestTruncateDirectiveLine pins that Truncate skips a compiler-directive
// line to its end, as the lexer does: an endmodule in a `define is not
// the body's terminator.
func TestTruncateDirectiveLine(t *testing.T) {
	for _, in := range []string{
		"`define END endmodule\n  assign y = a;\nendmodule",
		"`timescale 1ns/1ps // endmodule\n  assign y = a;\nendmodule",
	} {
		if got := Truncate(in + "\ntrailing junk"); got != in+"\n" {
			t.Errorf("Truncate(%q) = %q, want %q", in, got, in+"\n")
		}
	}
	// a directive with no trailing newline runs to the end of the text
	if in := "  assign y = a;\n`define END endmodule"; Truncate(in) != in {
		t.Errorf("Truncate(%q) = %q, want it unchanged", in, Truncate(in))
	}
	p := problems.ByNumber(13)
	completion := "`define END endmodule\n" + p.RefBody
	if f, err := vlog.Parse(p.Prompt(problems.LevelLow) + completion); err != nil || len(f.Modules) != 1 {
		t.Fatalf("the whole text must parse as one module: %v", err)
	}
	if o := Evaluate(p, problems.LevelLow, completion); !o.Compiles || !o.Passes {
		t.Errorf("Evaluate: %+v, want the reference to compile and pass", o)
	}
	if o := EvaluateUnshared(p, problems.LevelLow, completion); !o.Compiles || !o.Passes {
		t.Errorf("EvaluateUnshared: %+v, want the reference to compile and pass", o)
	}
}
