// Package verdict judges one completion for a (problem, level): the
// paper's evaluation framework (Section IV) in one pipeline. A completion
// is truncated at the endmodule keyword, parsed behind the problem's
// prompt, compile-checked (the Icarus Verilog role), elaborated with the
// testbench, simulated, and judged by the bench's self-check output.
//
// Evaluate runs that pipeline through process-wide shared tiers (see
// tiers.go), so each distinct candidate that parses is parsed, checked
// and simulated once, and its verdict is remembered whether it passes,
// fails to compile or fails its bench: a candidate is its problem, its
// prompt's token class and its truncated completion, and a problem's
// prompt levels, which differ only in comments, share one class. A
// candidate that does not parse is parsed again on every call. A
// completion without the text endmodule cannot close the prompt's
// module, so Evaluate judges it with one substring search, before
// truncation, the tiers and the parser.
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
// A text without an occurrence of endmodule costs one strings.Index;
// otherwise the scan reads only as far as the keyword.
func Truncate(completion string) string {
	return truncateAt(completion, strings.Index(completion, "endmodule"))
}

// truncateAt is Truncate given j, the index of the first occurrence of
// the text endmodule in completion, or -1: evaluateShared has already
// searched for it.
func truncateAt(completion string, j int) string {
	i := endmoduleKeywordIndex(completion, j)
	switch end := i + len("endmodule"); {
	case i < 0:
		return completion
	case end < len(completion) && completion[end] == '\n':
		return completion[:end+1] // already the text Truncate would build
	default:
		return completion[:end] + "\n"
	}
}

// scanStops marks the bytes that open a comment, directive or string,
// the only bytes at which endmoduleKeywordIndex's state can change.
// Every other byte costs one table lookup.
var scanStops = [256]bool{'/': true, '`': true, '"': true}

// endmoduleKeywordIndex returns the index of the first endmodule at a
// token boundary outside comments, directives and strings, or -1, given
// j, the index of the first occurrence of the text endmodule in s, or
// -1. Like the lexer, it skips from a backtick to the end of its line.
// It scans only up to the occurrence it is testing, jumping from one
// scanStops byte to the next and across a comment or directive to its
// end. An occurrence the scan
// reaches is the keyword unless a word byte touches it; one inside a
// comment, directive or string, or inside a longer word, sends the scan
// on to the next occurrence, found with strings.Index.
func endmoduleKeywordIndex(s string, j int) int {
	isWord := func(b byte) bool {
		return b == '_' || b == '$' ||
			(b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
	}
	if j < 0 {
		return -1
	}
	for i := 0; ; {
		for i < j && !scanStops[s[i]] {
			i++
		}
		switch c := s[i]; {
		case i == j:
			end := j + len("endmodule")
			if (j == 0 || !isWord(s[j-1])) && (end >= len(s) || !isWord(s[end])) {
				return j
			}
			i++ // the occurrence is inside a longer word
		case c == '`' || c == '/' && i+1 < len(s) && s[i+1] == '/':
			n := strings.IndexByte(s[i:], '\n')
			if n < 0 {
				return -1
			}
			i += n + 1
		case c == '/' && i+1 < len(s) && s[i+1] == '*':
			n := strings.Index(s[i+2:], "*/")
			if n < 0 {
				return -1 // an unterminated comment runs to the end
			}
			i += 2 + n + 2
		case c == '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
			if i >= len(s) {
				return -1 // so does an unterminated string
			}
			i++
		default:
			i++ // a slash that opens nothing
		}
		if j < i {
			n := strings.Index(s[i:], "endmodule")
			if n < 0 {
				return -1
			}
			j = i + n
		}
	}
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
// through the shared tiers (see tiers.go): the prompt and the testbench
// are parsed once, and a candidate that parses is compiled, elaborated
// and simulated once per distinct truncated completion and prompt token
// class; the verdict memo answers every repeat, at any level of the
// class, whatever its verdict. A completion that cannot close its module
// (vlog.Prefix.Split) is judged without being truncated, looked up or
// parsed. The verdict is identical to EvaluateUnshared's — the tiers
// hold only pure functions of their keys.
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
	f, err := vlog.Parse(p.CompleteWith(level, Truncate(completion)))
	if err != nil {
		return Outcome{}, sim.Result{}
	}
	o, d := elaborate(p, f)
	if d == nil {
		return o, sim.Result{}
	}
	return simulate(d, simOpts)
}

// elaborate compile-checks a parsed candidate and elaborates it with its
// problem's testbench. A nil design means the candidate does not reach
// simulation, and the Outcome is then its verdict.
func elaborate(p *problems.Problem, f *vlog.SourceFile) (Outcome, *elab.Design) {
	if elab.CompileCheck(f) != nil {
		return Outcome{}, nil
	}
	// The candidate compiles standalone; everything past this point can
	// only downgrade the verdict from Passes, never from Compiles.
	tb, err := testbenchFor(p.Testbench).parsed()
	if err != nil {
		return Outcome{Compiles: true}, nil
	}
	d, err := elab.Elaborate(vlog.Compose(f, tb), "tb", elab.Options{})
	if err != nil {
		return Outcome{Compiles: true}, nil
	}
	return Outcome{Compiles: true}, d
}

// simulate runs an elaborated candidate and judges its output.
func simulate(d *elab.Design, opts sim.Options) (Outcome, sim.Result) {
	res, err := sim.New(d, opts).Run()
	return Outcome{Compiles: true, Simulated: true, Passes: err == nil && problems.PassVerdict(res.Output)}, res
}
