package jimple

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual assembly form produced by Print and returns the
// program it describes. The format is line-oriented:
//
//	class com.app.Main extends android.app.Activity implements a.B {
//	  field mClient com.http.BasicHttpClient
//	  method onClick(android.view.View)void {
//	    local c com.http.BasicHttpClient
//	    L0:
//	    c = new com.http.BasicHttpClient
//	    specialinvoke c com.http.BasicHttpClient.<init>()void
//	    if c == null goto L1
//	    return
//	    L1:
//	    return
//	    trap L0 L1 L1 java.io.IOException
//	  }
//	}
//
// Identifiers "param", "this", "caught" and "null" are reserved and may
// not be used as local names.
func Parse(src string) (*Program, error) {
	p := &parser{lines: splitLines(src), prog: NewProgram()}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse is Parse that panics on error; for hand-authored sources in
// tests and goldens.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic("jimple: MustParse: " + err.Error())
	}
	return prog
}

type srcLine struct {
	num    int
	tokens []string
}

func splitLines(src string) []srcLine {
	raw := strings.Split(src, "\n")
	out := make([]srcLine, 0, len(raw))
	for i, l := range raw {
		toks, _ := tokenize(l)
		if len(toks) == 0 {
			continue
		}
		out = append(out, srcLine{num: i + 1, tokens: toks})
	}
	return out
}

// tokenize splits a line on whitespace, keeping double-quoted strings
// (with Go escaping) as single tokens and stripping "//" comments.
func tokenize(line string) ([]string, error) {
	var toks []string
	i, n := 0, len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && line[i+1] == '/':
			return toks, nil
		case c == '"':
			j := i + 1
			for j < n {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= n {
				return toks, fmt.Errorf("unterminated string")
			}
			toks = append(toks, line[i:j+1])
			i = j + 1
		default:
			j := i
			for j < n && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}

type parser struct {
	lines []srcLine
	pos   int
	prog  *Program
}

func (p *parser) errf(ln srcLine, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", ln.num, fmt.Sprintf(format, args...))
}

func (p *parser) run() error {
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		switch ln.tokens[0] {
		case "class", "abstract", "interface":
			if err := p.parseClass(); err != nil {
				return err
			}
		default:
			return p.errf(ln, "expected class declaration, got %q", ln.tokens[0])
		}
	}
	return nil
}

func (p *parser) parseClass() error {
	ln := p.lines[p.pos]
	toks := ln.tokens
	c := &Class{}
	i := 0
	if toks[i] == "abstract" {
		c.Abstract = true
		i++
	}
	switch toks[i] {
	case "class":
	case "interface":
		c.IsIface = true
	default:
		return p.errf(ln, "expected class/interface, got %q", toks[i])
	}
	i++
	if i >= len(toks) {
		return p.errf(ln, "missing class name")
	}
	c.Name = toks[i]
	i++
	for i < len(toks) {
		switch toks[i] {
		case "extends":
			if i+1 >= len(toks) {
				return p.errf(ln, "extends without a type")
			}
			c.Super = toks[i+1]
			i += 2
		case "implements":
			if i+1 >= len(toks) {
				return p.errf(ln, "implements without a list")
			}
			c.Interfaces = strings.Split(toks[i+1], ",")
			i += 2
		case "{":
			i++
		default:
			return p.errf(ln, "unexpected token %q in class header", toks[i])
		}
	}
	p.pos++
	for p.pos < len(p.lines) {
		ln = p.lines[p.pos]
		switch ln.tokens[0] {
		case "}":
			p.pos++
			p.prog.AddClass(c)
			return nil
		case "field":
			f, err := p.parseField(ln)
			if err != nil {
				return err
			}
			c.Fields = append(c.Fields, f)
			p.pos++
		case "method":
			m, err := p.parseMethod(c.Name)
			if err != nil {
				return err
			}
			c.Methods = append(c.Methods, m)
		default:
			return p.errf(ln, "unexpected token %q in class body", ln.tokens[0])
		}
	}
	return p.errf(ln, "class %s not closed", c.Name)
}

func (p *parser) parseField(ln srcLine) (*Field, error) {
	toks := ln.tokens[1:]
	f := &Field{}
	if len(toks) > 0 && toks[0] == "static" {
		f.Static = true
		toks = toks[1:]
	}
	if len(toks) != 2 {
		return nil, p.errf(ln, "field wants NAME TYPE")
	}
	f.Name, f.Type = toks[0], toks[1]
	return f, nil
}

func (p *parser) parseMethod(class string) (*Method, error) {
	ln := p.lines[p.pos]
	toks := ln.tokens[1:]
	m := &Method{}
	for len(toks) > 0 {
		if toks[0] == "static" {
			m.Static = true
			toks = toks[1:]
			continue
		}
		if toks[0] == "abstract" {
			m.Abstract = true
			toks = toks[1:]
			continue
		}
		break
	}
	if len(toks) == 0 {
		return nil, p.errf(ln, "method wants a signature")
	}
	sig, err := ParseSigKey(class + "." + toks[0])
	if err != nil {
		return nil, p.errf(ln, "bad method signature %q: %v", toks[0], err)
	}
	if sig.Class != class {
		// A '(' in the class name shifts where the key splits, so the
		// method would print back under a different signature.
		return nil, p.errf(ln, "bad method signature %q in class %q", toks[0], class)
	}
	m.Sig = sig
	hasBody := len(toks) > 1 && toks[1] == "{"
	p.pos++
	if !hasBody {
		if !m.Abstract {
			m.Abstract = true // signature-only methods are treated as abstract stubs
		}
		return m, nil
	}
	return m, p.parseBody(m)
}

type pendingBranch struct {
	stmt  int
	label string
	ln    srcLine
}

type pendingTrap struct {
	begin, end, handler string
	exception           string
	ln                  srcLine
}

func (p *parser) parseBody(m *Method) error {
	labels := make(map[string]int)
	var branches []pendingBranch
	var traps []pendingTrap
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		toks := ln.tokens
		head := toks[0]
		switch {
		case head == "}":
			p.pos++
			if m.Body == nil {
				// A concrete method with zero statements is normalized to
				// an abstract stub, matching the signature-only form: the
				// printer emits both without a body block, so the print →
				// parse round trip stays a fixpoint (fuzz-found asymmetry).
				m.Abstract = true
				m.Locals = nil
				return nil
			}
			return p.finishBody(m, labels, branches, traps)
		case head == "local":
			if len(toks) != 3 {
				return p.errf(ln, "local wants NAME TYPE")
			}
			if isReserved(toks[1]) {
				return p.errf(ln, "local name %q is reserved", toks[1])
			}
			m.Locals = append(m.Locals, LocalDecl{Name: toks[1], Type: toks[2]})
		case strings.HasSuffix(head, ":") && len(toks) == 1:
			name := strings.TrimSuffix(head, ":")
			if _, dup := labels[name]; dup {
				return p.errf(ln, "label %s defined twice", name)
			}
			labels[name] = len(m.Body)
		case head == "trap":
			if len(toks) != 5 {
				return p.errf(ln, "trap wants Lbegin Lend Lhandler ExceptionType")
			}
			traps = append(traps, pendingTrap{begin: toks[1], end: toks[2], handler: toks[3], exception: toks[4], ln: ln})
		default:
			s, branchLabel, err := p.parseStmt(ln)
			if err != nil {
				return err
			}
			if branchLabel != "" {
				branches = append(branches, pendingBranch{stmt: len(m.Body), label: branchLabel, ln: ln})
			}
			m.Body = append(m.Body, s)
		}
		p.pos++
	}
	return fmt.Errorf("method %s body not closed", m.Sig.Key())
}

func (p *parser) finishBody(m *Method, labels map[string]int, branches []pendingBranch, traps []pendingTrap) error {
	resolve := func(name string, ln srcLine) (int, error) {
		idx, ok := labels[name]
		if !ok {
			return 0, p.errf(ln, "undefined label %s", name)
		}
		return idx, nil
	}
	for _, br := range branches {
		idx, err := resolve(br.label, br.ln)
		if err != nil {
			return err
		}
		switch s := m.Body[br.stmt].(type) {
		case *IfStmt:
			s.Target = idx
		case *GotoStmt:
			s.Target = idx
		}
	}
	for _, t := range traps {
		b, err := resolve(t.begin, t.ln)
		if err != nil {
			return err
		}
		e, err := resolve(t.end, t.ln)
		if err != nil {
			return err
		}
		h, err := resolve(t.handler, t.ln)
		if err != nil {
			return err
		}
		m.Traps = append(m.Traps, Trap{Begin: b, End: e, Handler: h, Exception: t.exception})
	}
	return nil
}

func isReserved(name string) bool {
	switch name {
	case "param", "this", "caught", "null", "new", "cast", "instanceof",
		"if", "goto", "return", "throw", "nop", "trap", "local",
		"virtualinvoke", "interfaceinvoke", "specialinvoke", "staticinvoke":
		return true
	}
	return false
}

// parseStmt parses one statement line. If the statement is a branch, the
// returned label names its target (to be patched later).
func (p *parser) parseStmt(ln srcLine) (Stmt, string, error) {
	toks := ln.tokens
	switch toks[0] {
	case "nop":
		return &NopStmt{}, "", nil
	case "goto":
		if len(toks) != 2 {
			return nil, "", p.errf(ln, "goto wants a label")
		}
		return &GotoStmt{Target: -1}, toks[1], nil
	case "return":
		if len(toks) == 1 {
			return &ReturnStmt{}, "", nil
		}
		v, rest, err := p.parseAtom(ln, toks[1:])
		if err != nil {
			return nil, "", err
		}
		if len(rest) != 0 {
			return nil, "", p.errf(ln, "trailing tokens after return value")
		}
		return &ReturnStmt{V: v}, "", nil
	case "throw":
		v, rest, err := p.parseAtom(ln, toks[1:])
		if err != nil {
			return nil, "", err
		}
		if len(rest) != 0 {
			return nil, "", p.errf(ln, "trailing tokens after throw value")
		}
		return &ThrowStmt{V: v}, "", nil
	case "if":
		// if <cond...> goto Lx ; cond is atom | !atom | atom OP atom
		if len(toks) < 4 {
			return nil, "", p.errf(ln, "malformed if")
		}
		gotoIdx := -1
		for i := len(toks) - 2; i >= 1; i-- {
			if toks[i] == "goto" {
				gotoIdx = i
				break
			}
		}
		if gotoIdx < 0 || gotoIdx != len(toks)-2 {
			return nil, "", p.errf(ln, "if wants trailing 'goto L'")
		}
		cond, err := p.parseCond(ln, toks[1:gotoIdx])
		if err != nil {
			return nil, "", err
		}
		return &IfStmt{Cond: cond, Target: -1}, toks[len(toks)-1], nil
	case "virtualinvoke", "interfaceinvoke", "specialinvoke", "staticinvoke":
		inv, rest, err := p.parseInvoke(ln, toks)
		if err != nil {
			return nil, "", err
		}
		if len(rest) != 0 {
			return nil, "", p.errf(ln, "trailing tokens after invoke")
		}
		return &InvokeStmt{Call: inv}, "", nil
	}
	// Assignment: LHS = VALUE
	if len(toks) >= 3 && toks[1] == "=" {
		lhs, err := p.parseLValue(ln, toks[0])
		if err != nil {
			return nil, "", err
		}
		rhs, err := p.parseValue(ln, toks[2:])
		if err != nil {
			return nil, "", err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs}, "", nil
	}
	return nil, "", p.errf(ln, "unrecognized statement %q", strings.Join(toks, " "))
}

func (p *parser) parseLValue(ln srcLine, tok string) (LValue, error) {
	if strings.HasPrefix(tok, "field(") || strings.HasPrefix(tok, "sfield(") {
		v, _, err := p.parseAtom(ln, []string{tok})
		if err != nil {
			return nil, err
		}
		return v.(FieldRef), nil
	}
	if !isIdent(tok) {
		return nil, p.errf(ln, "bad assignment target %q", tok)
	}
	return Local{Name: tok}, nil
}

func isIdent(tok string) bool {
	if tok == "" || isReserved(tok) {
		return false
	}
	c := tok[0]
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// parseAtom consumes one atom from toks and returns the remainder.
func (p *parser) parseAtom(ln srcLine, toks []string) (Value, []string, error) {
	if len(toks) == 0 {
		return nil, nil, p.errf(ln, "expected a value")
	}
	tok := toks[0]
	rest := toks[1:]
	switch {
	case tok == "null":
		return NullConst{}, rest, nil
	case tok == "caught":
		return CaughtExRef{}, rest, nil
	case tok == "param":
		if len(rest) < 2 {
			return nil, nil, p.errf(ln, "param wants INDEX TYPE")
		}
		idx, err := strconv.Atoi(rest[0])
		if err != nil {
			return nil, nil, p.errf(ln, "bad param index %q", rest[0])
		}
		return ParamRef{Index: idx, Type: rest[1]}, rest[2:], nil
	case tok == "this":
		if len(rest) < 1 {
			return nil, nil, p.errf(ln, "this wants TYPE")
		}
		return ThisRef{Type: rest[0]}, rest[1:], nil
	case strings.HasPrefix(tok, "\""):
		s, err := strconv.Unquote(tok)
		if err != nil {
			return nil, nil, p.errf(ln, "bad string literal %s: %v", tok, err)
		}
		return StrConst{V: s}, rest, nil
	case strings.HasPrefix(tok, "field(") && strings.HasSuffix(tok, ")"):
		parts := strings.Split(tok[len("field("):len(tok)-1], ",")
		if len(parts) != 3 {
			return nil, nil, p.errf(ln, "field() wants (base,class,name)")
		}
		return FieldRef{Base: parts[0], Class: parts[1], Field: parts[2]}, rest, nil
	case strings.HasPrefix(tok, "sfield(") && strings.HasSuffix(tok, ")"):
		parts := strings.Split(tok[len("sfield("):len(tok)-1], ",")
		if len(parts) != 2 {
			return nil, nil, p.errf(ln, "sfield() wants (class,name)")
		}
		return FieldRef{Class: parts[0], Field: parts[1]}, rest, nil
	}
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return IntConst{V: v}, rest, nil
	}
	if isIdent(tok) {
		return Local{Name: tok}, rest, nil
	}
	return nil, nil, p.errf(ln, "unrecognized value token %q", tok)
}

var opByName = map[string]BinOp{
	"==": OpEQ, "!=": OpNE, "<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpRem,
	"&": OpAnd, "|": OpOr, "^": OpXor,
}

func (p *parser) parseCond(ln srcLine, toks []string) (Value, error) {
	v, err := p.parseValue(ln, toks)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// parseValue parses a full RHS expression, consuming all of toks.
func (p *parser) parseValue(ln srcLine, toks []string) (Value, error) {
	if len(toks) == 0 {
		return nil, p.errf(ln, "expected an expression")
	}
	switch toks[0] {
	case "new":
		if len(toks) != 2 {
			return nil, p.errf(ln, "new wants TYPE")
		}
		return NewExpr{Type: toks[1]}, nil
	case "cast":
		if len(toks) < 3 {
			return nil, p.errf(ln, "cast wants TYPE VALUE")
		}
		v, rest, err := p.parseAtom(ln, toks[2:])
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, p.errf(ln, "trailing tokens after cast")
		}
		return CastExpr{Type: toks[1], V: v}, nil
	case "instanceof":
		if len(toks) < 3 {
			return nil, p.errf(ln, "instanceof wants TYPE VALUE")
		}
		v, rest, err := p.parseAtom(ln, toks[2:])
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, p.errf(ln, "trailing tokens after instanceof")
		}
		return InstanceOfExpr{Type: toks[1], V: v}, nil
	case "virtualinvoke", "interfaceinvoke", "specialinvoke", "staticinvoke":
		inv, rest, err := p.parseInvoke(ln, toks)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, p.errf(ln, "trailing tokens after invoke")
		}
		return inv, nil
	}
	if strings.HasPrefix(toks[0], "!") && len(toks[0]) > 1 {
		inner, rest, err := p.parseAtom(ln, append([]string{toks[0][1:]}, toks[1:]...))
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, p.errf(ln, "trailing tokens after negation")
		}
		return NegExpr{V: inner}, nil
	}
	// atom, or atom OP atom
	l, rest, err := p.parseAtom(ln, toks)
	if err != nil {
		return nil, err
	}
	if len(rest) == 0 {
		return l, nil
	}
	op, ok := opByName[rest[0]]
	if !ok {
		return nil, p.errf(ln, "expected an operator, got %q", rest[0])
	}
	r, rest2, err := p.parseAtom(ln, rest[1:])
	if err != nil {
		return nil, err
	}
	if len(rest2) != 0 {
		return nil, p.errf(ln, "trailing tokens after binary expression")
	}
	return BinExpr{Op: op, L: l, R: r}, nil
}

func (p *parser) parseInvoke(ln srcLine, toks []string) (InvokeExpr, []string, error) {
	var kind InvokeKind
	switch toks[0] {
	case "virtualinvoke":
		kind = InvokeVirtual
	case "interfaceinvoke":
		kind = InvokeInterface
	case "specialinvoke":
		kind = InvokeSpecial
	case "staticinvoke":
		kind = InvokeStatic
	}
	toks = toks[1:]
	base := ""
	if kind != InvokeStatic {
		if len(toks) < 1 {
			return InvokeExpr{}, nil, p.errf(ln, "invoke wants a receiver")
		}
		base = toks[0]
		toks = toks[1:]
	}
	if len(toks) < 1 {
		return InvokeExpr{}, nil, p.errf(ln, "invoke wants a signature")
	}
	sig, err := ParseSigKey(toks[0])
	if err != nil {
		return InvokeExpr{}, nil, p.errf(ln, "bad invoke signature: %v", err)
	}
	toks = toks[1:]
	var args []Value
	for len(args) < len(sig.Params) {
		var a Value
		a, toks, err = p.parseAtom(ln, toks)
		if err != nil {
			return InvokeExpr{}, nil, err
		}
		args = append(args, a)
	}
	return InvokeExpr{Kind: kind, Base: base, Callee: sig, Args: args}, toks, nil
}
