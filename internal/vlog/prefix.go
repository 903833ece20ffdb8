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
	// prompt's final token and line the line the completion starts on.
	// head is nil when the prompt cannot be split from what follows it.
	head *Module
	last Token
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
	p := parserPool.Get().(*Parser)
	defer p.release()
	lx := NewLexer(prompt)
	toks, err := lexInto(p.toks[:0], lx)
	p.toks, p.pos = toks, 0
	if err != nil {
		return pre
	}
	if head, err := p.parsePrompt(); err == nil {
		pre.head, pre.last, pre.line = head, toks[len(toks)-1], lx.line
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
			return nil, p.errorf("prompt continues past its declarations")
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
func (pre *Prefix) completionLexer(completion string) *Lexer {
	return &Lexer{src: completion, line: pre.line, col: 1}
}

// ParsePrefixed parses pre's prompt followed by completion. Its result,
// down to error text, error positions and the position of every node,
// is exactly that of Parse(prompt+completion), and it counts in
// ParseCalls as Parse does.
//
// The first module's header and prompt declarations are pre's own
// nodes, shared by every result parsed from pre, so a result must be
// treated as read-only, as Compose's is. That module's Items and
// PortNames are its own slices: appending to them never writes into pre.
func ParsePrefixed(pre *Prefix, completion string) (*SourceFile, error) {
	if pre.head == nil {
		return Parse(pre.prompt + completion)
	}
	parseCalls.Add(1)
	p := parserPool.Get().(*Parser)
	defer p.release()
	// the prompt's last token stays in the buffer so that an error at the
	// end of input reports the position a whole-text parse would
	toks, err := lexInto(append(p.toks[:0], pre.last), pre.completionLexer(completion))
	p.toks, p.pos = toks, 1
	if err != nil {
		return nil, err
	}
	m := *pre.head
	m.Items = m.Items[:len(m.Items):len(m.Items)]
	m.PortNames = m.PortNames[:len(m.PortNames):len(m.PortNames)]
	if err := p.parseBody(&m); err != nil {
		return nil, err
	}
	return p.parseRest(&SourceFile{Modules: []*Module{&m}})
}
