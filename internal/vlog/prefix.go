package vlog

import (
	"encoding/binary"
	"strings"
)

// Prefix is a prompt parsed once, so that ParsePrefixed can parse
// prompt+completion while lexing and parsing only the completion.
// Evaluation parses many completions of each prompt, and the prompt is
// most of each source's bytes. Behind a prompt it splits, a completion
// without the text endmodule cannot parse (Split), so a caller may
// reject one without parsing. A Prefix is immutable, so one can be
// shared by any number of goroutines.
type Prefix struct {
	prompt string
	// head is the prompt's module header and declarations, last the
	// position of the prompt's final token and line the line the
	// completion starts on. head is nil when the prompt cannot be split
	// from what follows it.
	head *Module
	last Pos
	line int
	// sig is the prompt's token signature, empty when head is nil.
	sig string
}

// LexPrefix lexes and parses prompt for ParsePrefixed. The prompt is
// usable only when it ends in '\n', lexes without error, and parses as
// one module header followed only by declarations. At such a newline no
// token, comment or string is open and no token's scan looked past it,
// so lexing the completion on its own from the next line, column 1,
// yields exactly the tokens a lex of the whole text would. And the
// header and each declaration end at a ';' the parser never looks past,
// so a parse of the whole text reaches the completion holding exactly
// the module the prompt parsed to. Any other prompt makes ParsePrefixed
// fall back to Parse. A usable prompt's token signature is recorded
// too (see Signature).
func LexPrefix(prompt string) *Prefix {
	pre := &Prefix{prompt: prompt}
	if !strings.HasSuffix(prompt, "\n") {
		return pre
	}
	p := newParser(Lexer{src: prompt, line: 1, col: 1}, Pos{Line: 1, Col: 1})
	if head, err := p.parsePrompt(); err == nil && p.err == nil {
		// at the end of the prompt, p.tok is an EOF at its last token
		pre.head, pre.last, pre.line = head, p.tok.Pos, p.lx.line
		pre.sig = signature(prompt)
	}
	return pre
}

// Split reports whether LexPrefix split the prompt from what follows
// it, so that ParsePrefixed parses only the completion. A completion
// that does not contain the text "endmodule" never parses behind a
// split prompt. The prompt is one module header and its declarations,
// ending at a newline, so its module is still open; the completion is
// lexed on its own from its first byte, and the lexer expands no
// macros, so the endmodule keyword token that closes the module can
// only be a slice of the completion's own bytes.
func (pre *Prefix) Split() bool { return pre.head != nil }

// Signature returns the prompt's token signature: the kind and text of
// each of its tokens, without positions, whitespace or comments. It is
// empty when the prompt cannot be split from a completion, and never
// empty otherwise. Two prompts with equal non-empty signatures parse any
// completion to the same AST apart from node positions: the completion
// lexes to the same tokens behind both, only on other lines, and the
// parser reads no position except to report an error.
func (pre *Prefix) Signature() string { return pre.sig }

// signature encodes the tokens of a prompt that lexes without error,
// each as its kind, its text's length and its text, so that equal
// encodings mean equal token streams.
func signature(prompt string) string {
	lx := Lexer{src: prompt, line: 1, col: 1}
	var b []byte
	for {
		t, err := lx.Next()
		if err != nil || t.Kind == TokEOF {
			return string(b)
		}
		b = append(b, byte(t.Kind))
		b = binary.AppendUvarint(b, uint64(len(t.Text)))
		b = append(b, t.Text...)
	}
}

// promptDecls are the keywords that start a declaration parsePrompt
// accepts; each such item ends at a ';' parseItem never looks past.
var promptDecls = map[string]bool{
	"input": true, "output": true, "inout": true,
	"wire": true, "tri": true, "reg": true, "integer": true, "genvar": true,
	"parameter": true, "localparam": true,
}

// parsePrompt parses the whole buffer as one module header followed
// only by declarations. It leaves out always and initial: an if that
// ends a prompt would take an else from the completion.
func (p *Parser) parsePrompt() (*Module, error) {
	m, err := p.parseHeader()
	if err != nil {
		return nil, err
	}
	for !p.atEOF() {
		if t := p.cur(); t.Kind != TokKeyword || !promptDecls[t.Text] {
			return nil, p.errorf("prompt continues past its declarations", "", Token{})
		}
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, item)
	}
	return m, nil
}

// completionLexer lexes completion as the continuation of pre's prompt.
// It requires pre.head != nil.
func (pre *Prefix) completionLexer(completion string) Lexer {
	return Lexer{src: completion, line: pre.line, col: 1}
}

// ParsePrefixed parses pre's prompt followed by completion. Its result,
// down to the position of every node, is exactly that of
// Parse(prompt+completion), and it counts in ParseCalls as Parse does.
// A text that does not parse yields ok false and builds no error: the
// verdict path reads only whether a candidate parses. Parse reports the
// error.
//
// The first module's header and prompt declarations are pre's own
// nodes, shared by every result parsed from pre, so a result must be
// treated as read-only, as Compose's is. That module's Items and
// PortNames are its own slices: appending to them never writes into pre.
func ParsePrefixed(pre *Prefix, completion string) (f *SourceFile, ok bool) {
	var p Parser
	f, err := pre.parse(&p, completion)
	if err != nil || p.err != nil { // p.err: a lexical error ended the stream
		return nil, false
	}
	return f, true
}

// parse parses pre's prompt followed by completion in p. A failure is
// recorded in p, whose finish builds the error Parse would return.
func (pre *Prefix) parse(p *Parser, completion string) (*SourceFile, error) {
	parseCalls.Add(1)
	if pre.head == nil {
		return p.parseText(pre.prompt + completion)
	}
	// an empty completion's EOF is at the prompt's last token, where a
	// whole-text parse reports it
	*p = newParser(pre.completionLexer(completion), pre.last)
	m := *pre.head
	m.Items = m.Items[:len(m.Items):len(m.Items)]
	m.PortNames = m.PortNames[:len(m.PortNames):len(m.PortNames)]
	if err := p.parseBody(&m); err != nil {
		return nil, err
	}
	return p.parseRest(&SourceFile{Modules: []*Module{&m}})
}
