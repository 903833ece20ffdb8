package vlog

import "strings"

// Prefix is a prompt parsed once, so that ParsePrefixed can parse
// prompt+completion while lexing and parsing only the completion.
// Evaluation parses many completions of each prompt, and the prompt is
// most of each source's bytes. A Prefix is immutable, so one can be
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
// fall back to Parse.
func LexPrefix(prompt string) *Prefix {
	pre := &Prefix{prompt: prompt}
	if !strings.HasSuffix(prompt, "\n") {
		return pre
	}
	p := newParser(Lexer{src: prompt, line: 1, col: 1}, Pos{Line: 1, Col: 1})
	if head, err := p.parsePrompt(); err == nil && p.err == nil {
		// at the end of the prompt, p.tok is an EOF at its last token
		pre.head, pre.last, pre.line = head, p.tok.Pos, p.lx.line
	}
	return pre
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
