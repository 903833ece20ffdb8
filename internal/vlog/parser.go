package vlog

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vnum"
)

// parseCalls counts Parse and ParsePrefixed invocations; the evaluation
// pipeline's single-parse guarantee is asserted against it in tests.
var parseCalls atomic.Uint64

// ParseCalls returns the number of Parse and ParsePrefixed invocations so
// far (monotonic, process-wide). Intended for tests and perf accounting,
// not control flow.
func ParseCalls() uint64 { return parseCalls.Load() }

// ParseError is a syntax error with a source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// Parser is a recursive-descent parser over the supported Verilog subset.
type Parser struct {
	toks []Token
	pos  int
}

// parserPool recycles parsers between Parse calls: the token buffer is the
// parser's only real scratch, and reusing its backing array means
// steady-state parsing lexes into one long-lived slice instead of growing
// a fresh one per source text. The AST only retains Text strings (slices
// of src), never Token values, so releasing the buffer is safe.
var parserPool = sync.Pool{New: func() any { return &Parser{} }}

// release clears the token buffer (dropping the src references it pins)
// and returns the parser to the pool.
func (p *Parser) release() {
	clear(p.toks)
	p.toks = p.toks[:0]
	p.pos = 0
	parserPool.Put(p)
}

// Parse parses a complete source text into a SourceFile.
func Parse(src string) (*SourceFile, error) {
	parseCalls.Add(1)
	p := parserPool.Get().(*Parser)
	defer p.release()
	return p.parseFile(lexInto(p.toks[:0], NewLexer(src)))
}

// parseFile adopts toks as the parser's buffer and parses it as a
// sequence of modules; lexErr, the error that ended lexing, wins.
func (p *Parser) parseFile(toks []Token, lexErr error) (*SourceFile, error) {
	p.toks, p.pos = toks, 0
	if lexErr != nil {
		return nil, lexErr
	}
	return p.parseRest(&SourceFile{})
}

// parseRest appends the modules that remain in the buffer to file.
func (p *Parser) parseRest(file *SourceFile) (*SourceFile, error) {
	for !p.atEOF() {
		m, err := p.parseHeader()
		if err != nil {
			return nil, err
		}
		if err := p.parseBody(m); err != nil {
			return nil, err
		}
		file.Modules = append(file.Modules, m)
	}
	if len(file.Modules) == 0 {
		return nil, &ParseError{Msg: "no module declaration found"}
	}
	return file, nil
}

// ParseExprString parses a standalone expression (used by tests and the
// mutation engine).
func ParseExprString(src string) (Expr, error) {
	p := parserPool.Get().(*Parser)
	defer p.release()
	toks, err := lexInto(p.toks[:0], NewLexer(src))
	p.toks, p.pos = toks, 0
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing input after expression")
	}
	return e, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() Token {
	if p.atEOF() {
		last := Pos{Line: 1, Col: 1}
		if len(p.toks) > 0 {
			last = p.toks[len(p.toks)-1].Pos
		}
		return Token{Kind: TokEOF, Pos: last}
	}
	return p.toks[p.pos]
}

func (p *Parser) next() Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *Parser) isKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *Parser) accept(s string) bool {
	if p.isPunct(s) || p.isKeyword(s) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if !p.accept(s) {
		return p.errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *Parser) expectKeyword(s string) error {
	if !p.accept(s) {
		return p.errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return Token{}, p.errorf("expected identifier, found %s", t)
	}
	p.pos++
	return t, nil
}

// ---- module ------------------------------------------------------------

// parseHeader parses a module header through the ';' that ends it, and
// never looks past that ';'.
func (p *Parser) parseHeader() (*Module, error) {
	start := p.cur().Pos
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Pos: start, Name: nameTok.Text}

	// optional parameter header: #(parameter A = 1, B = 2)
	if p.accept("#") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		pd := &ParamDecl{Pos: p.cur().Pos}
		for {
			p.accept("parameter") // keyword optional on subsequent items
			pa, err := p.parseParamAssign()
			if err != nil {
				return nil, err
			}
			pd.Params = append(pd.Params, pa)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		m.Items = append(m.Items, pd)
	}

	if p.accept("(") {
		if !p.isPunct(")") {
			if err := p.parsePortList(m); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return m, nil
}

// parseBody appends m's items through its endmodule.
func (p *Parser) parseBody(m *Module) error {
	for !p.isKeyword("endmodule") {
		if p.atEOF() {
			return p.errorf("unexpected end of input inside module %q", m.Name)
		}
		item, err := p.parseItem()
		if err != nil {
			return err
		}
		if item != nil {
			m.Items = append(m.Items, item)
		}
	}
	p.next() // endmodule
	return nil
}

// parsePortList handles both ANSI headers (with directions) and plain
// name lists.
func (p *Parser) parsePortList(m *Module) error {
	ansi := p.isKeyword("input") || p.isKeyword("output") || p.isKeyword("inout")
	if !ansi {
		for {
			t, err := p.expectIdent()
			if err != nil {
				return err
			}
			m.PortNames = append(m.PortNames, t.Text)
			if !p.accept(",") {
				return nil
			}
		}
	}
	// ANSI style: direction groups separated by commas; a new direction
	// keyword starts a new PortDecl.
	var cur *PortDecl
	for {
		if p.isKeyword("input") || p.isKeyword("output") || p.isKeyword("inout") {
			dir := DirInput
			switch p.next().Text {
			case "output":
				dir = DirOutput
			case "inout":
				dir = DirInout
			}
			cur = &PortDecl{Pos: p.cur().Pos, Dir: dir}
			if p.accept("reg") {
				cur.IsReg = true
			} else if p.accept("wire") {
				// explicit wire: default anyway
			}
			if p.accept("signed") {
				cur.Signed = true
			}
			if p.isPunct("[") {
				r, err := p.parseRange()
				if err != nil {
					return err
				}
				cur.Range = r
			}
			m.Items = append(m.Items, cur)
		}
		if cur == nil {
			return p.errorf("expected port direction, found %s", p.cur())
		}
		t, err := p.expectIdent()
		if err != nil {
			return err
		}
		cur.Names = append(cur.Names, DeclName{Pos: t.Pos, Name: t.Text})
		m.PortNames = append(m.PortNames, t.Text)
		if !p.accept(",") {
			return nil
		}
	}
}

func (p *Parser) parseRange() (*RangeSpec, error) {
	start := p.cur().Pos
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return &RangeSpec{Pos: start, MSB: msb, LSB: lsb}, nil
}

func (p *Parser) parseParamAssign() (ParamAssign, error) {
	t, err := p.expectIdent()
	if err != nil {
		return ParamAssign{}, err
	}
	if err := p.expectPunct("="); err != nil {
		return ParamAssign{}, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return ParamAssign{}, err
	}
	return ParamAssign{Pos: t.Pos, Name: t.Text, Value: v}, nil
}

// ---- module items ------------------------------------------------------

func (p *Parser) parseItem() (Item, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword:
		switch t.Text {
		case "input", "output", "inout":
			return p.parsePortDeclItem()
		case "wire", "tri", "reg", "integer", "genvar":
			return p.parseNetDecl()
		case "parameter", "localparam":
			return p.parseParamDecl()
		case "assign":
			return p.parseContAssign()
		case "always":
			p.next()
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &AlwaysBlock{Pos: t.Pos, Body: body}, nil
		case "initial":
			p.next()
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &InitialBlock{Pos: t.Pos, Body: body}, nil
		case "function", "task", "generate", "fork", "real", "time",
			"supply0", "supply1", "and", "or", "not", "nand", "nor",
			"xor", "xnor", "buf":
			return nil, p.errorf("unsupported construct %q", t.Text)
		default:
			return nil, p.errorf("unexpected keyword %q", t.Text)
		}
	case t.Kind == TokIdent:
		// module instantiation: Type [#(...)] name ( ... ) ;
		return p.parseInstance()
	case t.Kind == TokPunct && t.Text == ";":
		p.next()
		return nil, nil
	default:
		return nil, p.errorf("unexpected token %s at module level", t)
	}
}

func (p *Parser) parsePortDeclItem() (Item, error) {
	t := p.next()
	dir := DirInput
	switch t.Text {
	case "output":
		dir = DirOutput
	case "inout":
		dir = DirInout
	}
	d := &PortDecl{Pos: t.Pos, Dir: dir}
	if p.accept("reg") {
		d.IsReg = true
	} else {
		p.accept("wire")
	}
	if p.accept("signed") {
		d.Signed = true
	}
	if p.isPunct("[") {
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		d.Range = r
	}
	for {
		nt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, DeclName{Pos: nt.Pos, Name: nt.Text})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseNetDecl() (Item, error) {
	t := p.next()
	d := &NetDecl{Pos: t.Pos}
	switch t.Text {
	case "wire", "tri":
		d.Kind = KindWire
	case "reg":
		d.Kind = KindReg
	case "integer", "genvar":
		d.Kind = KindInteger
	}
	if p.accept("signed") {
		d.Signed = true
	}
	if p.isPunct("[") {
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		d.Range = r
	}
	for {
		nt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		dn := DeclName{Pos: nt.Pos, Name: nt.Text}
		if p.isPunct("[") {
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			dn.ArrayRange = r
		}
		if p.accept("=") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			dn.Init = e
		}
		d.Names = append(d.Names, dn)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseParamDecl() (Item, error) {
	t := p.next()
	d := &ParamDecl{Pos: t.Pos, Local: t.Text == "localparam"}
	// optional range or signed, e.g. parameter [1:0] S0 = 0
	p.accept("signed")
	if p.isPunct("[") {
		if _, err := p.parseRange(); err != nil {
			return nil, err
		}
	}
	for {
		pa, err := p.parseParamAssign()
		if err != nil {
			return nil, err
		}
		d.Params = append(d.Params, pa)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseContAssign() (Item, error) {
	t := p.next() // assign
	ca := &ContAssign{Pos: t.Pos}
	for {
		lhs, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ca.Assigns = append(ca.Assigns, &Assign{Pos: t.Pos, LHS: lhs, RHS: rhs})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return ca, nil
}

func (p *Parser) parseInstance() (Item, error) {
	mod := p.next()
	inst := &Instance{Pos: mod.Pos, Module: mod.Text}
	if p.accept("#") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		conns, err := p.parseConnList()
		if err != nil {
			return nil, err
		}
		inst.Params = conns
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst.Name = nameTok.Text
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		conns, err := p.parseConnList()
		if err != nil {
			return nil, err
		}
		inst.Conns = conns
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return inst, nil
}

func (p *Parser) parseConnList() ([]PortConn, error) {
	var conns []PortConn
	for {
		if p.isPunct(".") {
			p.next()
			nt, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var e Expr
			if !p.isPunct(")") {
				var err error
				e, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			conns = append(conns, PortConn{Pos: nt.Pos, Name: nt.Text, Expr: e})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			conns = append(conns, PortConn{Pos: e.NodePos(), Expr: e})
		}
		if !p.accept(",") {
			return conns, nil
		}
	}
}

// ---- statements --------------------------------------------------------

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword:
		switch t.Text {
		case "begin":
			return p.parseBlock()
		case "if":
			return p.parseIf()
		case "case", "casez", "casex":
			return p.parseCase()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "repeat":
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			n, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &Repeat{Pos: t.Pos, Count: n, Body: body}, nil
		case "forever":
			p.next()
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &Forever{Pos: t.Pos, Body: body}, nil
		case "wait":
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			body, err := p.parseOptStmt()
			if err != nil {
				return nil, err
			}
			return &Wait{Pos: t.Pos, Cond: cond, Stmt: body}, nil
		default:
			return nil, p.errorf("unexpected keyword %q in statement", t.Text)
		}
	case t.Kind == TokPunct && t.Text == "#":
		p.next()
		amt, err := p.parseDelayAmount()
		if err != nil {
			return nil, err
		}
		body, err := p.parseOptStmt()
		if err != nil {
			return nil, err
		}
		return &Delay{Pos: t.Pos, Amount: amt, Stmt: body}, nil
	case t.Kind == TokPunct && t.Text == "@":
		p.next()
		ec := &EventCtrl{Pos: t.Pos}
		if p.accept("*") {
			ec.Star = true
		} else {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			if p.accept("*") {
				ec.Star = true
			} else {
				for {
					item, err := p.parseEventItem()
					if err != nil {
						return nil, err
					}
					ec.Events = append(ec.Events, item)
					if !p.accept(",") && !p.accept("or") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		body, err := p.parseOptStmt()
		if err != nil {
			return nil, err
		}
		ec.Stmt = body
		return ec, nil
	case t.Kind == TokPunct && t.Text == ";":
		p.next()
		return &Null{Pos: t.Pos}, nil
	case t.Kind == TokSysName:
		p.next()
		sc := &SysCall{Pos: t.Pos, Name: t.Text}
		if p.accept("(") {
			if !p.isPunct(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					sc.Args = append(sc.Args, e)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return sc, nil
	case t.Kind == TokIdent || (t.Kind == TokPunct && t.Text == "{"):
		return p.parseAssignStmt()
	default:
		return nil, p.errorf("unexpected token %s in statement", t)
	}
}

// parseOptStmt parses the statement controlled by a delay or event control;
// a following ';' means a null statement.
func (p *Parser) parseOptStmt() (Stmt, error) {
	if p.isPunct(";") {
		t := p.next()
		return &Null{Pos: t.Pos}, nil
	}
	return p.parseStmt()
}

func (p *Parser) parseDelayAmount() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		return p.parsePrimary()
	case t.Kind == TokIdent:
		p.next()
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errorf("expected delay amount, found %s", t)
	}
}

func (p *Parser) parseEventItem() (EventItem, error) {
	t := p.cur()
	item := EventItem{Pos: t.Pos, Edge: EdgeAny}
	if p.accept("posedge") {
		item.Edge = EdgePos
	} else if p.accept("negedge") {
		item.Edge = EdgeNeg
	}
	e, err := p.parseExpr()
	if err != nil {
		return EventItem{}, err
	}
	item.X = e
	return item, nil
}

func (p *Parser) parseBlock() (Stmt, error) {
	t := p.next() // begin
	b := &Block{Pos: t.Pos}
	if p.accept(":") {
		nt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		b.Name = nt.Text
	}
	for !p.isKeyword("end") {
		if p.atEOF() {
			return nil, p.errorf("unexpected end of input in begin/end block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // end
	return b, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseOptStmt()
	if err != nil {
		return nil, err
	}
	node := &If{Pos: t.Pos, Cond: cond, Then: then}
	if p.accept("else") {
		els, err := p.parseOptStmt()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *Parser) parseCase() (Stmt, error) {
	t := p.next()
	kind := CaseExact
	switch t.Text {
	case "casez":
		kind = CaseZ
	case "casex":
		kind = CaseX
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	node := &Case{Pos: t.Pos, Kind: kind, Expr: sel}
	for !p.isKeyword("endcase") {
		if p.atEOF() {
			return nil, p.errorf("unexpected end of input in case statement")
		}
		item := CaseItem{Pos: p.cur().Pos}
		if p.accept("default") {
			p.accept(":")
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Exprs = append(item.Exprs, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
		}
		body, err := p.parseOptStmt()
		if err != nil {
			return nil, err
		}
		item.Body = body
		node.Items = append(node.Items, item)
	}
	p.next() // endcase
	return node, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	init, err := p.parseSimpleAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	step, err := p.parseSimpleAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &For{Pos: t.Pos, Init: init, Cond: cond, Step: step, Body: body}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &While{Pos: t.Pos, Cond: cond, Body: body}, nil
}

// parseSimpleAssign parses "lvalue = expr" without the trailing semicolon
// (for-loop headers).
func (p *Parser) parseSimpleAssign() (*Assign, error) {
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Assign{Pos: lhs.NodePos(), LHS: lhs, RHS: rhs}, nil
}

func (p *Parser) parseAssignStmt() (Stmt, error) {
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	nb := false
	switch {
	case p.accept("="):
	case p.accept("<="):
		nb = true
	default:
		return nil, p.errorf("expected '=' or '<=', found %s", p.cur())
	}
	// optional intra-assignment delay: a = #5 expr;
	var delay Expr
	if p.accept("#") {
		delay, err = p.parseDelayAmount()
		if err != nil {
			return nil, err
		}
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	as := &Assign{Pos: lhs.NodePos(), LHS: lhs, RHS: rhs, NonBlocking: nb}
	if delay != nil {
		// model intra-assignment delay as delay-then-assign: adequate for
		// the subset (no race-sensitive TB uses it)
		return &Delay{Pos: as.Pos, Amount: delay, Stmt: as}, nil
	}
	return as, nil
}

// parseLValue parses an assignment target: identifier with optional
// selects, or a concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct && t.Text == "{" {
		p.next()
		c := &Concat{Pos: t.Pos}
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return c, nil
	}
	if t.Kind != TokIdent {
		return nil, p.errorf("expected lvalue, found %s", t)
	}
	p.next()
	var e Expr = &Ident{Pos: t.Pos, Name: t.Text}
	return p.parsePostfixSelects(e)
}

func (p *Parser) parsePostfixSelects(e Expr) (Expr, error) {
	for p.isPunct("[") {
		open := p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(":") {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = &RangeSel{Pos: open.Pos, X: e, MSB: first, LSB: lsb}
		} else {
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = &Index{Pos: open.Pos, X: e, I: first}
		}
	}
	return e, nil
}

// ---- expressions -------------------------------------------------------

// binary operator precedence levels, lowest first
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^", "~^", "^~"},
	{"&"},
	{"==", "!=", "===", "!=="},
	{"<", "<=", ">", ">="},
	{"<<", ">>", ">>>", "<<<"},
	{"+", "-"},
	{"*", "/", "%"},
	{"**"},
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	q := p.next()
	then, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Pos: q.Pos, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		matched := false
		for _, op := range binLevels[level] {
			if t.Text == op {
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: t.Pos, Op: t.Text, X: lhs, Y: rhs}
	}
}

var unaryOps = map[string]bool{
	"+": true, "-": true, "!": true, "~": true,
	"&": true, "|": true, "^": true, "~&": true, "~|": true, "~^": true, "^~": true,
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct && unaryOps[t.Text] {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Pos: t.Pos, Op: t.Text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		text := t.Text
		// glue "4" + "'b1010" written with a space
		if !strings.ContainsRune(text, '\'') && p.cur().Kind == TokNumber &&
			strings.HasPrefix(p.cur().Text, "'") {
			text += p.next().Text
		}
		v, err := vnum.ParseLiteral(text)
		if err != nil {
			return nil, &ParseError{Pos: t.Pos, Msg: err.Error()}
		}
		return &Number{Pos: t.Pos, Text: text, Value: v}, nil

	case t.Kind == TokString:
		p.next()
		return &Str{Pos: t.Pos, Text: t.Text}, nil

	case t.Kind == TokSysName:
		p.next()
		sc := &SysCallExpr{Pos: t.Pos, Name: t.Text}
		if p.accept("(") {
			if !p.isPunct(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					sc.Args = append(sc.Args, e)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		return sc, nil

	case t.Kind == TokIdent:
		p.next()
		var e Expr = &Ident{Pos: t.Pos, Name: t.Text}
		return p.parsePostfixSelects(e)

	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Kind == TokPunct && t.Text == "{":
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// replication: {N{expr}}
		if p.isPunct("{") {
			p.next()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			return &Repl{Pos: t.Pos, Count: first, X: inner}, nil
		}
		c := &Concat{Pos: t.Pos, Parts: []Expr{first}}
		for p.accept(",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return c, nil

	default:
		return nil, p.errorf("unexpected token %s in expression", t)
	}
}
