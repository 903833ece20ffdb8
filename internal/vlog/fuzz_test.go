package vlog

import (
	"errors"
	"testing"
)

// FuzzParse drives the lexer+parser with arbitrary input. Any outcome but
// a panic is acceptable, as long as the error reported is the first one
// in the text: a text the lexer rejects never parses, a lexical error
// Parse reports is the one LexAll finds, and a syntax error Parse
// reports where LexAll finds a lexical error lies before it. Under plain
// `go test` the seed corpus runs as a regression suite;
// `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"module m; endmodule",
		"module m(input a, output reg [3:0] q); always @(posedge a) q <= q + 1; endmodule",
		"module m; initial $display(\"%d\", 4'bxz01); endmodule",
		"module m; wire w = 1'b1; endmodule",
		"module m(a); input a; reg [7:0] mem [3:0]; endmodule",
		"module \x00; endmodule",
		"module m; always @(*) begin end endmodule",
		"module m; parameter P = {2{4'hA}}; endmodule",
		"4'd15 + 'hFF",
		"// only a comment",
		"`timescale 1ns/1ps",
		"module m; initial #5 $finish; endmodule",
		"module m; c #(.W(8)) i (.a(b), .c());",
		"module m;\n  wire ;\n  @#\x01\nendmodule\n",
		"module m;\n  wire \x01 ;\n  wire ;\nendmodule\n",
		"module m;\nendmodule\n\x01\n",
		"module m; wire [4'b2:0] w; $\nendmodule",
		"module m; wire w; /* unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		_, lexErr := LexAll(src)
		var le *LexError
		var pe *ParseError
		switch {
		case lexErr == nil:
			if errors.As(err, &le) {
				t.Fatalf("Parse(%q) reports %v, but the text lexes", src, err)
			}
		case err == nil:
			t.Fatalf("Parse(%q) succeeds, but LexAll reports %v", src, lexErr)
		case errors.As(err, &le):
			if err.Error() != lexErr.Error() {
				t.Fatalf("Parse(%q) reports %v, LexAll %v", src, err, lexErr)
			}
		case errors.As(err, &pe):
			errors.As(lexErr, &le)
			if !before(pe.Pos, le.Pos) {
				t.Fatalf("Parse(%q) reports %v, at or after LexAll's %v", src, err, lexErr)
			}
		}
	})
}

func before(a, b Pos) bool { return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col }
