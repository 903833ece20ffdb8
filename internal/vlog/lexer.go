package vlog

import (
	"fmt"
	"strings"
)

// LexError is a lexical error with a source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: lex error: %s", e.Pos, e.Msg) }

// Lexer turns Verilog source text into tokens. Compiler directives
// (`timescale, `define, ...) are skipped to end of line, matching how the
// evaluation pipeline treats them (they never affect the subset semantics).
//
// Token text is a zero-copy slice of src wherever the token's value equals
// its spelling — identifiers, numbers, system names, and strings without
// escapes; only escaped strings materialize a fresh string. Punctuation
// resolves to interned constants via a first-byte switch.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// advanceN skips n bytes known to contain no newline.
func (lx *Lexer) advanceN(n int) {
	lx.off += n
	lx.col += n
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || c == '$' || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isBaseChar(c byte) bool {
	switch c {
	case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H', 's', 'S':
		return true
	}
	return false
}

func isNumChar(c byte) bool {
	return isDigit(c) || c == '_' || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') ||
		c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?'
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		case c == '`':
			// compiler directive: skip to end of line
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// lexPunct resolves operators and punctuation, longest match first within
// each leading byte. The returned text is always an interned constant.
func (lx *Lexer) lexPunct(p Pos) (Token, error) {
	rest := lx.src[lx.off:]
	has := func(s string) bool { return strings.HasPrefix(rest, s) }
	var op string
	switch rest[0] {
	case '<':
		switch {
		case has("<<<"):
			op = "<<<"
		case has("<<"):
			op = "<<"
		case has("<="):
			op = "<="
		default:
			op = "<"
		}
	case '>':
		switch {
		case has(">>>"):
			op = ">>>"
		case has(">>"):
			op = ">>"
		case has(">="):
			op = ">="
		default:
			op = ">"
		}
	case '=':
		switch {
		case has("==="):
			op = "==="
		case has("=="):
			op = "=="
		default:
			op = "="
		}
	case '!':
		switch {
		case has("!=="):
			op = "!=="
		case has("!="):
			op = "!="
		default:
			op = "!"
		}
	case '&':
		if has("&&") {
			op = "&&"
		} else {
			op = "&"
		}
	case '|':
		if has("||") {
			op = "||"
		} else {
			op = "|"
		}
	case '*':
		if has("**") {
			op = "**"
		} else {
			op = "*"
		}
	case '~':
		switch {
		case has("~&"):
			op = "~&"
		case has("~|"):
			op = "~|"
		case has("~^"):
			op = "~^"
		default:
			op = "~"
		}
	case '^':
		if has("^~") {
			op = "^~"
		} else {
			op = "^"
		}
	case '+':
		if has("+:") {
			op = "+:"
		} else {
			op = "+"
		}
	case '-':
		if has("-:") {
			op = "-:"
		} else {
			op = "-"
		}
	case '(':
		op = "("
	case ')':
		op = ")"
	case '[':
		op = "["
	case ']':
		op = "]"
	case '{':
		op = "{"
	case '}':
		op = "}"
	case ';':
		op = ";"
	case ':':
		op = ":"
	case ',':
		op = ","
	case '.':
		op = "."
	case '#':
		op = "#"
	case '@':
		op = "@"
	case '/':
		op = "/"
	case '%':
		op = "%"
	case '?':
		op = "?"
	default:
		return Token{}, &LexError{Pos: p, Msg: fmt.Sprintf("unexpected character %q", rest[0])}
	}
	lx.advanceN(len(op))
	return Token{Kind: TokPunct, Text: op, Pos: p}, nil
}

// Next returns the next token. At end of input it returns a TokEOF token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	p := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: p}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		i := lx.off
		for i < len(lx.src) && isIdentChar(lx.src[i]) {
			i++
		}
		lx.advanceN(i - start)
		text := lx.src[start:i]
		kind := TokIdent
		if IsKeyword(text) {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: p}, nil

	case c == '$':
		start := lx.off
		i := lx.off + 1
		for i < len(lx.src) && isIdentChar(lx.src[i]) {
			i++
		}
		lx.advanceN(i - start)
		text := lx.src[start:i]
		if len(text) == 1 {
			return Token{}, &LexError{Pos: p, Msg: "bare '$'"}
		}
		return Token{Kind: TokSysName, Text: text, Pos: p}, nil

	case isDigit(c) || (c == '\'' && isBaseChar(lx.peek2())):
		return lx.lexNumber(p)

	case c == '"':
		// Fast path: a string without escapes or newlines is a zero-copy
		// slice of src between the quotes.
		i := lx.off + 1
		for i < len(lx.src) && lx.src[i] != '"' && lx.src[i] != '\\' && lx.src[i] != '\n' {
			i++
		}
		if i < len(lx.src) && lx.src[i] == '"' {
			text := lx.src[lx.off+1 : i]
			lx.advanceN(i + 1 - lx.off)
			return Token{Kind: TokString, Text: text, Pos: p}, nil
		}
		// Slow path: escapes materialize the unescaped value.
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: p, Msg: "unterminated string"}
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && lx.off < len(lx.src) {
				esc := lx.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				default:
					sb.WriteByte(esc)
				}
				continue
			}
			if ch == '\n' {
				return Token{}, &LexError{Pos: p, Msg: "newline in string"}
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: p}, nil

	default:
		return lx.lexPunct(p)
	}
}

// lexNumber handles 42, 42.5 (rejected), 4'b1010, 'd15, and the case where
// the width and tick are separated: "4 'b0" is produced by some emitters;
// the parser glues size-then-based tokens, so here a number is either a
// plain decimal run or a based literal starting at ' .
func (lx *Lexer) lexNumber(p Pos) (Token, error) {
	start := lx.off
	if lx.peek() == '\'' {
		lx.advance() // '
		if isBaseChar(lx.peek()) {
			lx.advance()
			// optional second base char after s
			if isBaseChar(lx.peek()) && (lx.src[lx.off-1] == 's' || lx.src[lx.off-1] == 'S') {
				lx.advance()
			}
		} else {
			return Token{}, &LexError{Pos: p, Msg: "missing base after '"}
		}
		for lx.off < len(lx.src) && isNumChar(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.off], Pos: p}, nil
	}
	for lx.off < len(lx.src) && (isDigit(lx.peek()) || lx.peek() == '_') {
		lx.advance()
	}
	// based part directly attached: 4'b....
	if lx.peek() == '\'' && isBaseChar(lx.peek2()) {
		lx.advance()
		lx.advance()
		if isBaseChar(lx.peek()) && (lx.src[lx.off-1] == 's' || lx.src[lx.off-1] == 'S') {
			lx.advance()
		}
		for lx.off < len(lx.src) && isNumChar(lx.peek()) {
			lx.advance()
		}
	}
	return Token{Kind: TokNumber, Text: lx.src[start:lx.off], Pos: p}, nil
}

// estimateTokens pre-counts the tokens in src with a lightweight scan (no
// position tracking, no token construction) so lexing can fill one
// backing slice sized up front. Multi-byte operators and based literals
// may count as several tokens — the estimate only has to be a capacity,
// never short by much and never wrong.
func estimateTokens(src string) int {
	n := 0
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				i++
			}
			i += 2
		case c == '`':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '"':
			n++
			i++
			for i < len(src) && src[i] != '"' {
				if src[i] == '\\' {
					i++
				}
				i++
			}
			i++
		case isIdentChar(c):
			n++
			for i < len(src) && isIdentChar(src[i]) {
				i++
			}
		default:
			n++
			i++
		}
	}
	return n
}

// lexInto appends every remaining token of lx onto toks (the
// pooled-buffer path the parser uses).
func lexInto(toks []Token, lx *Lexer) ([]Token, error) {
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

// LexAll tokenizes the whole input. A pre-count pass sizes the result so
// the fill pass performs exactly one slice allocation.
//
//vgencheck:oracle whole-input token stream the lexer and ParsePrefixed's spliced lexing are checked against (TestParsePrefixedMatchesParse)
func LexAll(src string) ([]Token, error) {
	toks, err := lexInto(make([]Token, 0, estimateTokens(src)), NewLexer(src))
	if err != nil {
		return nil, err
	}
	return toks, nil
}
