package vlog_test

import (
	"errors"
	"testing"

	"repro/internal/vlog"
)

// TestFirstErrorWins pins the error a text with both a syntax error and
// a lexical error reports: the one that comes first in the text, through
// Parse and through ParsePrefixed behind a prompt they share.
func TestFirstErrorWins(t *testing.T) {
	const prompt = "module m;\n"
	cases := []struct {
		name, completion, want string
		lexical                bool
	}{
		{"syntax error before a lexical one", "  wire ;\n  @#\x01\nendmodule\n",
			`2:8: syntax error: expected identifier, found ";"`, false},
		{"lexical error before a syntax error", "  wire \x01 ;\n  wire ;\nendmodule\n",
			`2:8: lex error: unexpected character '\x01'`, true},
		{"lexical error after a complete module", "endmodule\n\x01\n",
			`3:1: lex error: unexpected character '\x01'`, true},
		{"literal error before a lexical one", "  wire [4'b2:0] w; \x01\nendmodule\n",
			`2:9: syntax error: vnum: bad literal "4'b2": digit '2' out of range for base 2`, false},
	}
	pre := vlog.LexPrefix(prompt)
	if vlog.PrefixHead(pre) == nil {
		t.Fatal("the prompt did not take the head path")
	}
	for _, c := range cases {
		_, err := vlog.Parse(prompt + c.completion)
		_, perr := vlog.ParsePrefixed(pre, c.completion)
		for i, err := range []error{err, perr} {
			via := []string{"Parse", "ParsePrefixed"}[i]
			var le *vlog.LexError
			var pe *vlog.ParseError
			switch {
			case err == nil:
				t.Errorf("%s via %s: no error", c.name, via)
			case errors.As(err, &le) != c.lexical || errors.As(err, &pe) == c.lexical:
				t.Errorf("%s via %s: %T, want the other kind", c.name, via, err)
			case err.Error() != c.want:
				t.Errorf("%s via %s: %q, want %q", c.name, via, err, c.want)
			}
		}
	}
}
