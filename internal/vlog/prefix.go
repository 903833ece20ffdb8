package vlog

import "strings"

// Prefix is a prompt lexed once, so that ParsePrefixed can parse
// prompt+completion while lexing only the completion. Evaluation parses
// many completions of each prompt, and the prompt is most of each
// source's bytes. A Prefix is immutable, so one can be shared by any
// number of goroutines.
type Prefix struct {
	prompt string
	toks   []Token
	// line is the line the completion starts on, or 0 when the prompt
	// cannot be split from what follows it.
	line int
}

// LexPrefix lexes prompt for ParsePrefixed. The tokens are usable only
// when the prompt ends in '\n' and lexes without error. At such a
// boundary no token, comment or string is open and no token's scan
// looked past the newline, so lexing the completion on its own from the
// next line, column 1, yields exactly the tokens a lex of the whole text
// would. Any other prompt makes ParsePrefixed fall back to Parse.
func LexPrefix(prompt string) *Prefix {
	pre := &Prefix{prompt: prompt}
	if !strings.HasSuffix(prompt, "\n") {
		return pre
	}
	lx := NewLexer(prompt)
	toks, err := lexInto(make([]Token, 0, estimateTokens(prompt)), lx)
	if err == nil {
		pre.toks, pre.line = toks, lx.line
	}
	return pre
}

// lexInto appends the tokens of prompt+completion onto toks, reusing the
// prompt's tokens and lexing only the completion. It requires
// pre.line != 0.
func (pre *Prefix) lexInto(toks []Token, completion string) ([]Token, error) {
	return lexInto(append(toks, pre.toks...), &Lexer{src: completion, line: pre.line, col: 1})
}

// ParsePrefixed parses pre's prompt followed by completion. Its result,
// down to error text and error positions, is exactly that of
// Parse(prompt+completion), and it counts in ParseCalls as Parse does.
func ParsePrefixed(pre *Prefix, completion string) (*SourceFile, error) {
	if pre.line == 0 {
		return Parse(pre.prompt + completion)
	}
	parseCalls.Add(1)
	p := parserPool.Get().(*Parser)
	defer p.release()
	return p.parseFile(pre.lexInto(p.toks[:0], completion))
}
