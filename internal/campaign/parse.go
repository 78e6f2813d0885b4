package campaign

// AST and recursive-descent parser of the campaign language — an
// expression/statement subset deliberately too small to need a
// toolchain: let/assignment, if/else, for-in, while, break/continue/
// return, calls, index/field access, list and map literals, `fn`
// function literals, and the usual operators. Callables are the host
// bindings registered on the interpreter plus script-defined `fn`
// values (closures over their defining scope), which exist so scripts
// can hand strategy callbacks to register_strategy.

import "fmt"

// Expressions.
type (
	litExpr struct { // nil, bool, int64, float64, string
		val  any
		line int
	}
	identExpr struct {
		name string
		line int
	}
	listExpr struct {
		elems []expr
		line  int
	}
	mapExpr struct {
		keys []string
		vals []expr
		line int
	}
	unaryExpr struct {
		op   string
		x    expr
		line int
	}
	binaryExpr struct {
		op   string
		x, y expr
		line int
	}
	callExpr struct {
		fn   expr
		args []expr
		line int
	}
	indexExpr struct {
		x, idx expr
		line   int
	}
	fieldExpr struct {
		x    expr
		name string
		line int
	}
	fnExpr struct { // fn(params) { body } — a function literal
		params []string
		body   []stmt
		line   int
	}
)

type expr interface{ pos() int }

func (e *litExpr) pos() int    { return e.line }
func (e *identExpr) pos() int  { return e.line }
func (e *listExpr) pos() int   { return e.line }
func (e *mapExpr) pos() int    { return e.line }
func (e *unaryExpr) pos() int  { return e.line }
func (e *binaryExpr) pos() int { return e.line }
func (e *callExpr) pos() int   { return e.line }
func (e *indexExpr) pos() int  { return e.line }
func (e *fieldExpr) pos() int  { return e.line }
func (e *fnExpr) pos() int     { return e.line }

// Statements.
type (
	letStmt struct {
		name string
		val  expr
		line int
	}
	assignStmt struct {
		target expr // identExpr, indexExpr, or fieldExpr
		val    expr
		line   int
	}
	exprStmt struct {
		x expr
	}
	ifStmt struct {
		cond      expr
		then, alt []stmt // alt may hold a single nested ifStmt (else if)
		line      int
	}
	forStmt struct {
		name string
		iter expr
		body []stmt
		line int
	}
	whileStmt struct {
		cond expr
		body []stmt
		line int
	}
	breakStmt    struct{ line int }
	continueStmt struct{ line int }
	returnStmt   struct {
		val  expr // nil for bare return
		line int
	}
)

type stmt interface{ stmtPos() int }

func (s *letStmt) stmtPos() int      { return s.line }
func (s *assignStmt) stmtPos() int   { return s.line }
func (s *exprStmt) stmtPos() int     { return s.x.pos() }
func (s *ifStmt) stmtPos() int       { return s.line }
func (s *forStmt) stmtPos() int      { return s.line }
func (s *whileStmt) stmtPos() int    { return s.line }
func (s *breakStmt) stmtPos() int    { return s.line }
func (s *continueStmt) stmtPos() int { return s.line }
func (s *returnStmt) stmtPos() int   { return s.line }

type parser struct {
	toks []token
	i    int
}

// Parse parses a campaign script into its statement list. It never
// panics; malformed input yields an error with a line number.
func Parse(src string) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.stmts(tEOF, "")
	if err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if p.toks[p.i].kind != tEOF {
		p.i++
	}
	return t
}

// skipNL consumes newline tokens — used wherever a line break cannot
// terminate a construct (inside brackets, after commas/operators).
func (p *parser) skipNL() {
	for p.peek().kind == tNewline {
		p.next()
	}
}

func (p *parser) isOp(text string) bool {
	t := p.peek()
	return t.kind == tOp && t.text == text
}

func (p *parser) acceptOp(text string) bool {
	if p.isOp(text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(text string) error {
	if !p.acceptOp(text) {
		return scriptErr(p.peek().line, "expected %q, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) isKeyword(name string) bool {
	t := p.peek()
	return t.kind == tIdent && t.text == name
}

// stmts parses statements until the closer ("}" operator or EOF).
func (p *parser) stmts(end tokKind, closeOp string) ([]stmt, error) {
	var out []stmt
	for {
		p.skipNL()
		t := p.peek()
		if t.kind == end && closeOp == "" {
			return out, nil
		}
		if closeOp != "" && t.kind == tOp && t.text == closeOp {
			return out, nil
		}
		if t.kind == tEOF {
			if closeOp != "" {
				return nil, scriptErr(t.line, "expected %q before end of script", closeOp)
			}
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		// Statement terminator: newline, ';', the block closer, or EOF.
		switch nt := p.peek(); {
		case nt.kind == tNewline:
			p.next()
		case nt.kind == tOp && nt.text == ";":
			p.next()
		case nt.kind == tOp && nt.text == "}" && closeOp == "}":
		case nt.kind == tEOF:
		default:
			return nil, scriptErr(nt.line, "expected end of statement, found %s", nt)
		}
	}
}

func (p *parser) block() ([]stmt, error) {
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	body, err := p.stmts(tOp, "}")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("}"); err != nil {
		return nil, err
	}
	return body, nil
}

func (p *parser) stmt() (stmt, error) {
	t := p.peek()
	switch {
	case p.isKeyword("let"):
		p.next()
		name := p.peek()
		if name.kind != tIdent {
			return nil, scriptErr(name.line, "expected variable name after let, found %s", name)
		}
		if isReserved(name.text) {
			return nil, scriptErr(name.line, "cannot use keyword %q as a variable name", name.text)
		}
		p.next()
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &letStmt{name: name.text, val: val, line: t.line}, nil

	case p.isKeyword("if"):
		return p.ifStmt()

	case p.isKeyword("for"):
		p.next()
		name := p.peek()
		if name.kind != tIdent || isReserved(name.text) {
			return nil, scriptErr(name.line, "expected loop variable after for, found %s", name)
		}
		p.next()
		if !p.isKeyword("in") {
			return nil, scriptErr(p.peek().line, "expected \"in\", found %s", p.peek())
		}
		p.next()
		iter, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &forStmt{name: name.text, iter: iter, body: body, line: t.line}, nil

	case p.isKeyword("while"):
		p.next()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &whileStmt{cond: cond, body: body, line: t.line}, nil

	case p.isKeyword("break"):
		p.next()
		return &breakStmt{line: t.line}, nil

	case p.isKeyword("continue"):
		p.next()
		return &continueStmt{line: t.line}, nil

	case p.isKeyword("return"):
		p.next()
		nt := p.peek()
		if nt.kind == tNewline || nt.kind == tEOF || (nt.kind == tOp && (nt.text == "}" || nt.text == ";")) {
			return &returnStmt{line: t.line}, nil
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &returnStmt{val: val, line: t.line}, nil
	}

	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.acceptOp("=") {
		switch x.(type) {
		case *identExpr, *indexExpr, *fieldExpr:
		default:
			return nil, scriptErr(t.line, "invalid assignment target")
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &assignStmt{target: x, val: val, line: t.line}, nil
	}
	return &exprStmt{x: x}, nil
}

func (p *parser) ifStmt() (stmt, error) {
	t := p.next() // "if"
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &ifStmt{cond: cond, then: then, line: t.line}
	// "else" must follow on the same logical line as "}".
	if p.isKeyword("else") {
		p.next()
		if p.isKeyword("if") {
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			s.alt = []stmt{nested}
		} else {
			alt, err := p.block()
			if err != nil {
				return nil, err
			}
			s.alt = alt
		}
	}
	return s, nil
}

func isReserved(name string) bool {
	switch name {
	case "let", "if", "else", "for", "in", "while", "break", "continue",
		"return", "true", "false", "nil", "fn":
		return true
	}
	return false
}

// Expression parsing, by descending precedence.

// binLevels orders binary operators from loosest to tightest.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) expr() (expr, error) { return p.binary(0) }

func (p *parser) binary(level int) (expr, error) {
	if level >= len(binLevels) {
		return p.unary()
	}
	x, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range binLevels[level] {
			if p.isOp(op) {
				matched = op
				break
			}
		}
		if matched == "" {
			return x, nil
		}
		opTok := p.next()
		p.skipNL()
		y, err := p.binary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &binaryExpr{op: matched, x: x, y: y, line: opTok.line}
	}
}

func (p *parser) unary() (expr, error) {
	if p.isOp("!") || p.isOp("-") {
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: t.text, x: x, line: t.line}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isOp("("):
			t := p.next()
			var args []expr
			p.skipNL()
			for !p.isOp(")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				p.skipNL()
				if !p.acceptOp(",") {
					break
				}
				p.skipNL()
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			x = &callExpr{fn: x, args: args, line: t.line}
		case p.isOp("["):
			t := p.next()
			p.skipNL()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.skipNL()
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			x = &indexExpr{x: x, idx: idx, line: t.line}
		case p.isOp("."):
			t := p.next()
			name := p.peek()
			if name.kind != tIdent {
				return nil, scriptErr(name.line, "expected field name after '.', found %s", name)
			}
			p.next()
			x = &fieldExpr{x: x, name: name.text, line: t.line}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (expr, error) {
	t := p.peek()
	switch {
	case t.kind == tInt:
		p.next()
		return &litExpr{val: t.i64, line: t.line}, nil
	case t.kind == tFloat:
		p.next()
		return &litExpr{val: t.f64, line: t.line}, nil
	case t.kind == tString:
		p.next()
		return &litExpr{val: t.text, line: t.line}, nil
	case t.kind == tIdent && t.text == "fn":
		return p.fnLiteral()
	case t.kind == tIdent:
		p.next()
		switch t.text {
		case "true":
			return &litExpr{val: true, line: t.line}, nil
		case "false":
			return &litExpr{val: false, line: t.line}, nil
		case "nil":
			return &litExpr{val: nil, line: t.line}, nil
		}
		if isReserved(t.text) {
			return nil, scriptErr(t.line, "unexpected keyword %q", t.text)
		}
		return &identExpr{name: t.text, line: t.line}, nil
	case t.kind == tOp && t.text == "(":
		p.next()
		p.skipNL()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.skipNL()
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.kind == tOp && t.text == "[":
		p.next()
		var elems []expr
		p.skipNL()
		for !p.isOp("]") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			p.skipNL()
			if !p.acceptOp(",") {
				break
			}
			p.skipNL()
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		return &listExpr{elems: elems, line: t.line}, nil
	case t.kind == tOp && t.text == "{":
		p.next()
		m := &mapExpr{line: t.line}
		p.skipNL()
		for !p.isOp("}") {
			k := p.peek()
			var key string
			switch {
			case k.kind == tIdent && !isReserved(k.text):
				key = k.text
			case k.kind == tString:
				key = k.text
			default:
				return nil, scriptErr(k.line, "expected map key (name or string), found %s", k)
			}
			p.next()
			if err := p.expectOp(":"); err != nil {
				return nil, err
			}
			p.skipNL()
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			m.keys = append(m.keys, key)
			m.vals = append(m.vals, v)
			p.skipNL()
			if !p.acceptOp(",") {
				break
			}
			p.skipNL()
		}
		if err := p.expectOp("}"); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, scriptErr(t.line, "unexpected %s", t)
	}
}

// fnLiteral parses `fn(params) { body }`. Parameter names follow
// variable-name rules and must be distinct.
func (p *parser) fnLiteral() (expr, error) {
	t := p.next() // "fn"
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []string
	p.skipNL()
	for !p.isOp(")") {
		name := p.peek()
		if name.kind != tIdent || isReserved(name.text) {
			return nil, scriptErr(name.line, "expected parameter name, found %s", name)
		}
		for _, prev := range params {
			if prev == name.text {
				return nil, scriptErr(name.line, "duplicate parameter %q", name.text)
			}
		}
		params = append(params, name.text)
		p.next()
		p.skipNL()
		if !p.acceptOp(",") {
			break
		}
		p.skipNL()
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &fnExpr{params: params, body: body, line: t.line}, nil
}

var _ = fmt.Sprintf // keep fmt linked for scriptErr callers above
