package verdict

import (
	"strings"
	"testing"
)

// byteScanIndex is endmoduleKeywordIndex as it was first written, one
// byte at a time with a keyword test at every byte: the oracle the skip
// scan is checked against.
func byteScanIndex(s string) int {
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

// byteScanTruncate is Truncate over the oracle scan.
func byteScanTruncate(s string) string {
	if i := byteScanIndex(s); i >= 0 {
		return s[:i+len("endmodule")] + "\n"
	}
	return s
}

// truncateCases are the texts where a skip scan can go wrong: a state
// change right at a stop byte, an escape that hides a quote, a comment or
// string that never ends, and a keyword at either end of the text.
var truncateCases = []struct{ name, in, want string }{
	{"after a block comment", "/* c */endmodule x", "/* c */endmodule\n"},
	{"after a block comment's star-slash", "/**/endmodule", "/**/endmodule\n"},
	{"star-slash inside the opener", "/*/ endmodule */ endmodule", "/*/ endmodule */ endmodule\n"},
	{"escaped quote in a string", `$display("a\" endmodule"); endmodule`, `$display("a\" endmodule"); endmodule` + "\n"},
	{"escaped backslash ends a string", `"\\" endmodule`, `"\\" endmodule` + "\n"},
	{"unterminated block comment", "assign y = a; /* endmodule", "assign y = a; /* endmodule"},
	{"unterminated string", `$display("endmodule`, `$display("endmodule`},
	{"string ending in a backslash", `"endmodule\`, `"endmodule\`},
	{"dollar before", "$endmodule endmodule", "$endmodule endmodule\n"},
	{"dollar after", "endmodule$ endmodule", "endmodule$ endmodule\n"},
	{"at offset 0", "endmodule\nmodule junk;", "endmodule\n"},
	{"at the very end", "assign y = a;\nendmodule", "assign y = a;\nendmodule\n"},
	{"keyword then newline", "endmodule\n// babble", "endmodule\n"},
	{"keyword then CR LF", "endmodule\r\n", "endmodule\n"},
	{"directive line", "`define E endmodule\nendmodule", "`define E endmodule\nendmodule\n"},
	{"line comment at the end", "// endmodule", "// endmodule"},
	{"slash that opens nothing", "a / b; endmodule", "a / b; endmodule\n"},
	{"prefix of the keyword", "endmodul endmodule", "endmodul endmodule\n"},
	{"no keyword", "assign y = a;", "assign y = a;"},
	{"empty", "", ""},
	// an occurrence the scan must jump past to reach the keyword
	{"in a line comment first", "// endmodule\nendmodule", "// endmodule\nendmodule\n"},
	{"in a block comment first", "/* endmodule */ endmodule\n", "/* endmodule */ endmodule\n"},
	{"in a directive line first", "`ifdef endmodule\n`endif endmodule\nendmodule x", "`ifdef endmodule\n`endif endmodule\nendmodule\n"},
	{"in a string first", `$display("endmodule"); endmodule`, `$display("endmodule"); endmodule` + "\n"},
	{"escaped quotes span occurrences", `"\" endmodule \" endmodule" endmodule`, `"\" endmodule \" endmodule" endmodule` + "\n"},
	{"word before", "xendmodule endmodule", "xendmodule endmodule\n"},
	{"keyword twice in one word", "endmoduleendmodule endmodule", "endmoduleendmodule endmodule\n"},
	{"overlapping occurrences", "endmodulendmodule endmodule", "endmodulendmodule endmodule\n"},
	{"dollar only", "$endmodule", "$endmodule"},
	{"every occurrence hidden", "// endmodule\n/* endmodule */ \"endmodule\" my_endmodule", "// endmodule\n/* endmodule */ \"endmodule\" my_endmodule"},
	{"babble line", "  the module ends when the output reg is assigned\n", "  the module ends when the output reg is assigned\n"},
}

func TestTruncateSkipScanCases(t *testing.T) {
	for _, c := range truncateCases {
		if got := Truncate(c.in); got != c.want {
			t.Errorf("%s: Truncate(%q) = %q, want %q", c.name, c.in, got, c.want)
		}
		if oracle := byteScanTruncate(c.in); oracle != c.want {
			t.Errorf("%s: the byte scan gives %q", c.name, oracle)
		}
	}
}

// TestTruncateKeepsNoTail: a text already cut after endmodule's newline
// is returned as it is, without a copy.
func TestTruncateKeepsNoTail(t *testing.T) {
	in := "  assign y = a;\nendmodule\nmodule junk; endmodule\n"
	if allocs := testing.AllocsPerRun(10, func() { Truncate(in) }); allocs != 0 {
		t.Errorf("Truncate allocated %.0f times, want 0", allocs)
	}
}

// FuzzTruncate checks the skip scan, which jumps from one occurrence of
// the text endmodule to the next, against the byte-at-a-time oracle.
func FuzzTruncate(f *testing.F) {
	for _, c := range truncateCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := endmoduleKeywordIndex(s, strings.Index(s, "endmodule")), byteScanIndex(s); got != want {
			t.Fatalf("endmoduleKeywordIndex(%q) = %d, want %d", s, got, want)
		}
		if got, want := Truncate(s), byteScanTruncate(s); got != want {
			t.Fatalf("Truncate(%q) = %q, want %q", s, got, want)
		}
	})
}
