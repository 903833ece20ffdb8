// Package vlog implements a Verilog-2001 subset frontend: lexer, abstract
// syntax tree, recursive-descent parser and a source printer. The subset
// covers synthesizable RTL plus the behavioural constructs used by test
// benches (initial blocks, delays, event controls, system tasks), which is
// the language surface exercised by the paper's 17-problem evaluation.
//
// The parser lexes on demand and stops at its first error, so a text
// with several errors reports the first in source order: a syntax error
// before a lexical one is a *ParseError, and a lexical error before any
// syntax error is a *LexError, even when the parse would also have
// failed after it.
package vlog

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokSysName // $display, $time, ...
	TokNumber  // 12, 4'b1010, 8'hFF
	TokString  // "..."
	TokKeyword
	TokPunct // operators and punctuation
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokSysName:
		return "system name"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokKeyword:
		return "keyword"
	default:
		return "punctuation"
	}
}

// Pos is a line/column source position (1-based).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "EOF"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "integer": true,
	"parameter": true, "localparam": true, "assign": true, "always": true,
	"initial": true, "begin": true, "end": true, "if": true, "else": true,
	"case": true, "casez": true, "casex": true, "endcase": true,
	"default": true, "for": true, "while": true, "repeat": true,
	"forever": true, "posedge": true, "negedge": true, "or": true,
	"wait": true, "signed": true, "not": true, "and": true, "nand": true,
	"nor": true, "xor": true, "xnor": true, "buf": true, "genvar": true,
	"generate": true, "endgenerate": true, "function": true,
	"endfunction": true, "task": true, "endtask": true, "real": true,
	"time": true, "tri": true, "supply0": true, "supply1": true,
	"deassign": true, "disable": true, "fork": true, "join": true,
}

// IsKeyword reports whether s is a reserved word in the supported subset.
func IsKeyword(s string) bool { return keywords[s] }
