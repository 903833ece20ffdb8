// Package verdict judges one completion for a (problem, level): the
// paper's evaluation framework (Section IV) in one pipeline. A completion
// is truncated at the endmodule keyword, parsed behind the problem's
// prompt, compile-checked (the Icarus Verilog role), spliced into the
// testbench skeleton or elaborated with the bench, simulated, and judged
// by the bench's self-check output.
//
// Evaluate runs that pipeline through process-wide shared tiers (see
// tiers.go), so each distinct candidate is compiled and simulated once.
// EvaluateUnshared runs it with nothing shared; it is the differential
// oracle the tiers are checked against. Every caller that verdicts a
// candidate — the sweep engine in eval and the variant bank in model —
// calls one of the two, which is why this package sits below both.
package verdict

import (
	"strings"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// Truncate cuts a completion after the first endmodule keyword, mirroring
// the paper's truncation of generations at `end`/`endmodule`. Only the
// keyword proper terminates the body: "endmodule" inside a line or block
// comment, a compiler-directive line, a string literal, or an identifier
// (my_endmodule, endmodule2) is plain text. A naive substring search
// here used to chop a passing candidate at a comment that merely
// mentioned endmodule, silently flipping its verdict to non-compiling.
func Truncate(completion string) string {
	if i := endmoduleKeywordIndex(completion); i >= 0 {
		return completion[:i+len("endmodule")] + "\n"
	}
	return completion
}

// endmoduleKeywordIndex scans for the first endmodule at a token boundary
// outside comments, directives and strings, or -1. Like the lexer, it
// skips from a backtick to the end of its line.
func endmoduleKeywordIndex(s string) int {
	isWord := func(b byte) bool {
		return b == '_' || b == '$' ||
			(b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
	}
	for i := 0; i < len(s); {
		switch {
		case s[i] == '/' && i+1 < len(s) && s[i+1] == '/', s[i] == '`':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case s[i] == '/' && i+1 < len(s) && s[i+1] == '*':
			i += 2
			for i+1 < len(s) && !(s[i] == '*' && s[i+1] == '/') {
				i++
			}
			i += 2 // past the closer (or the end on an unterminated comment)
		case s[i] == '"':
			i++
			for i < len(s) && s[i] != '"' {
				if s[i] == '\\' {
					i++
				}
				i++
			}
			i++
		case strings.HasPrefix(s[i:], "endmodule") &&
			(i == 0 || !isWord(s[i-1])) &&
			(i+len("endmodule") >= len(s) || !isWord(s[i+len("endmodule")])):
			return i
		default:
			i++
		}
	}
	return -1
}

// Outcome is the verdict for one completion. Simulated distinguishes
// "never simulated" (the candidate failed to parse, compile, or
// elaborate, so the simulator never ran) from "simulated and failed"
// (the simulator ran but the run errored or the output failed the
// verdict) — the distinction a verdict-as-a-service caller needs to
// report meaningfully. Passes implies Simulated implies Compiles.
type Outcome struct {
	Compiles  bool
	Simulated bool
	Passes    bool
}

// Evaluate runs the full pipeline on one completion for (problem, level)
// through the shared tiers (see tiers.go): the testbench skeleton is
// elaborated once per problem, expression plans are shared across
// simulators, and a candidate is spliced, compiled and simulated once per
// distinct truncated source; the verdict memo answers every repeat. The
// verdict is identical to EvaluateUnshared's — the tiers hold only pure
// functions of the source text.
func Evaluate(p *problems.Problem, level problems.Level, completion string) Outcome {
	o, _ := evaluateShared(p, level, completion)
	return o
}

// EvaluateUnshared runs the same pipeline with nothing shared: fresh
// parse, full elaboration, and a fresh simulator per call. It is the
// differential baseline for the shared tiers, the role Options.Interpret
// plays one layer down in sim.
func EvaluateUnshared(p *problems.Problem, level problems.Level, completion string) Outcome {
	o, _ := evaluateSim(p, level, completion, sim.Options{})
	return o
}

// evaluateSim is EvaluateUnshared with the simulator options exposed and
// the raw simulation result returned: the interpreter-vs-compiled-plan
// differential test runs the pipeline under both engines and compares
// Result.Output byte for byte.
//
// Return normalization: paths that never construct a simulator return a
// zero sim.Result with Outcome.Simulated false; once sim.Run is entered,
// Simulated is true and the Result is the run's actual state — on a limit
// error that is the partial output at the point the limit fired, never a
// fabricated zero value. Callers can therefore trust (Simulated, Result)
// to agree.
func evaluateSim(p *problems.Problem, level problems.Level, completion string, simOpts sim.Options) (Outcome, sim.Result) {
	completion = Truncate(completion)
	src := p.CompleteWith(level, completion)
	f, err := vlog.Parse(src)
	if err != nil {
		return Outcome{}, sim.Result{}
	}
	if elab.CompileCheck(f) != nil {
		return Outcome{}, sim.Result{}
	}
	// The candidate compiles standalone; everything past this point can
	// only downgrade the verdict from Passes, never from Compiles.
	tb, err := testbenchFor(p.Testbench).parsed()
	if err != nil {
		return Outcome{Compiles: true}, sim.Result{}
	}
	d, err := elab.Elaborate(vlog.Compose(f, tb), "tb", elab.Options{})
	if err != nil {
		return Outcome{Compiles: true}, sim.Result{}
	}
	res, err := sim.New(d, simOpts).Run()
	if err != nil {
		return Outcome{Compiles: true, Simulated: true}, res
	}
	return Outcome{Compiles: true, Simulated: true, Passes: problems.PassVerdict(res.Output)}, res
}
