package model

import (
	"strings"
	"testing"

	"repro/internal/problems"
)

// checkPoolBoundaries asserts that each of e's pools holds only what its
// verdict boundary admits, judged by the oracle pipeline: a correct
// candidate passes (or is the reference, the pool's fallback when
// nothing passed), a near-miss simulates and fails, and a broken
// candidate never reaches simulation.
func checkPoolBoundaries(t *testing.T, name string, p *problems.Problem, e *bankEntry) {
	t.Helper()
	fallback := len(e.correct) == 1 && e.correct[0] == p.RefBody
	for _, c := range e.correct {
		if o := unshared(p, c); !o.Passes && !fallback {
			t.Errorf("%s: correct pool holds %+v: %q", name, o, c)
		}
	}
	for _, c := range e.nearMiss {
		if o := unshared(p, c); !o.Simulated || o.Passes {
			t.Errorf("%s: near-miss pool holds %+v: %q", name, o, c)
		}
	}
	for _, c := range e.broken {
		if o := unshared(p, c); o.Simulated {
			t.Errorf("%s: broken pool holds %+v: %q", name, o, c)
		}
	}
}

// TestBankClassifiesByVerdictBoundaries builds pools for two problem
// copies on which the three verdict boundaries differ from their
// neighbours, which no shipped problem's candidates do:
//
//   - a bench that rejects the counter's ports, so every candidate that
//     compiles fails to elaborate: compiling is not passing (correct
//     pool) and not simulating (near-miss pool);
//   - a reference whose body is a wrong counter followed by comment
//     padding, so every cut of it truncates to a body that simulates and
//     fails: failing is not failing to simulate (broken pool).
func TestBankClassifiesByVerdictBoundaries(t *testing.T) {
	p := problems.ByNumber(6)
	badBench := *p
	badBench.Testbench = "module tb;\n  reg clk;\n  counter dut(.clk(clk), .no_such_port(clk));\nendmodule\n"
	e := buildEntry(&badBench, 1)
	if len(e.correct) != 1 || len(e.nearMiss) != 0 {
		t.Errorf("bench rejecting the ports: %d correct, %d near-miss candidates, want the fallback alone and none",
			len(e.correct), len(e.nearMiss))
	}
	checkPoolBoundaries(t, "bench rejecting the ports", &badBench, e)

	wrongRef := *p
	wrongRef.RefBody = "  always @(posedge clk) q <= 4'd0;\nendmodule\n" + strings.Repeat("// padding after the body\n", 8)
	if o := unshared(&wrongRef, wrongRef.RefBody[:len(wrongRef.RefBody)/3]); !o.Simulated || o.Passes {
		t.Fatalf("a cut of the wrong reference: %+v, want it to simulate and fail", o)
	}
	checkPoolBoundaries(t, "wrong reference", &wrongRef, buildEntry(&wrongRef, 1))
}
