// Package parse implements an Edinburgh-syntax operator-precedence parser
// producing terms from package term — the reader of the Prolog-X–style
// front end described in §2 of the paper.
package parse

import (
	"fmt"
	"io"
	"strings"

	"clare/internal/lex"
	"clare/internal/term"
)

// Error is a syntax error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parser reads a sequence of clauses (terms terminated by '.') from source
// text.
type Parser struct {
	toks []lex.Token
	pos  int
	ops  *OpTable
	vars map[string]*term.Var // variable scope of the current clause
	// VarNames records, for the most recently read term, the named
	// variables in first-occurrence order. Useful for answer printing.
	VarNames []string
}

// New returns a parser over src using the standard operator table.
func New(src string) (*Parser, error) { return NewWithOps(src, NewOpTable()) }

// NewWithOps returns a parser over src with a caller-supplied operator
// table (which op/3 directives may mutate between ReadTerm calls).
func NewWithOps(src string, ops *OpTable) (*Parser, error) {
	toks, err := lex.New(src).All()
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks, ops: ops}, nil
}

// Ops exposes the operator table, letting the engine implement op/3.
func (p *Parser) Ops() *OpTable { return p.ops }

func (p *Parser) peek() lex.Token { return p.toks[p.pos] }

func (p *Parser) next() lex.Token {
	t := p.toks[p.pos]
	if t.Kind != lex.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) errf(t lex.Token, format string, args ...any) error {
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// ReadTerm reads the next clause (a term followed by '.'). At end of input
// it returns io.EOF.
func (p *Parser) ReadTerm() (term.Term, error) {
	if p.peek().Kind == lex.EOF {
		return nil, io.EOF
	}
	p.vars = make(map[string]*term.Var)
	p.VarNames = p.VarNames[:0]
	t, err := p.parse(1200)
	if err != nil {
		return nil, err
	}
	end := p.next()
	if end.Kind != lex.End {
		return nil, p.errf(end, "expected '.' to end clause, found %v", end)
	}
	return t, nil
}

// ReadAll reads every clause in the input.
func (p *Parser) ReadAll() ([]term.Term, error) {
	var out []term.Term
	for {
		t, err := p.ReadTerm()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// stdOps is the standard operator table Term parses with. It is never
// handed out (Term's parser does not escape), so nothing can run op/3
// against it and concurrent Term calls only ever read it.
var stdOps = NewOpTable()

// Term parses a single source string holding exactly one term (no trailing
// '.').  Convenience for tests and query building.
func Term(src string) (term.Term, error) {
	p, err := NewWithOps(src, stdOps)
	if err != nil {
		return nil, err
	}
	p.vars = make(map[string]*term.Var)
	t, err := p.parse(1200)
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != lex.EOF && p.peek().Kind != lex.End {
		return nil, p.errf(p.peek(), "trailing tokens after term")
	}
	return t, nil
}

// MustTerm is Term but panics on error; for literals in tests and examples.
func MustTerm(src string) term.Term {
	t, err := Term(src)
	if err != nil {
		panic(err)
	}
	return t
}

// parse reads a term whose priority does not exceed maxPrec.
func (p *Parser) parse(maxPrec int) (term.Term, error) {
	left, leftPrec, err := p.parsePrimary(maxPrec)
	if err != nil {
		return nil, err
	}
	return p.parseInfix(left, leftPrec, maxPrec)
}

// parseInfix folds infix/postfix operators onto left while they fit under
// maxPrec.
func (p *Parser) parseInfix(left term.Term, leftPrec, maxPrec int) (term.Term, error) {
	for {
		t := p.peek()
		var name string
		switch {
		case t.Kind == lex.AtomTok:
			name = t.Text
		case t.Kind == lex.Punct && (t.Text == ","):
			name = ","
		case t.Kind == lex.Punct && (t.Text == "|"):
			// '|' as an infix is ';' in bodies; only valid inside no
			// bracket context — treated as ';' per tradition.
			name = "|"
		default:
			return left, nil
		}

		if op, ok := p.ops.Infix(name); ok {
			la, ra := argPriorities(op)
			if op.Priority <= maxPrec && leftPrec <= la {
				p.next()
				fun := name
				if name == "|" {
					fun = ";"
				}
				right, err := p.parse(ra)
				if err != nil {
					return nil, err
				}
				left = term.New(fun, left, right)
				leftPrec = op.Priority
				continue
			}
		}
		if op, ok := p.ops.Postfix(name); ok {
			la, _ := argPriorities(op)
			if op.Priority <= maxPrec && leftPrec <= la {
				p.next()
				left = term.New(name, left)
				leftPrec = op.Priority
				continue
			}
		}
		return left, nil
	}
}

// parsePrimary reads one primary term (possibly a prefix-operator
// application) and returns it with its priority.
func (p *Parser) parsePrimary(maxPrec int) (term.Term, int, error) {
	t := p.next()
	switch t.Kind {
	case lex.EOF:
		return nil, 0, p.errf(t, "unexpected end of input")
	case lex.End:
		return nil, 0, p.errf(t, "unexpected '.'")
	case lex.IntTok:
		return term.Int(t.Int), 0, nil
	case lex.FloatTok:
		return term.Float(t.Float), 0, nil
	case lex.VarTok:
		return p.variable(t.Text), 0, nil
	case lex.StrTok:
		// Double-quoted strings read as lists of character codes.
		codes := make([]term.Term, 0, len(t.Text))
		for _, r := range t.Text {
			codes = append(codes, term.Int(r))
		}
		return term.List(codes...), 0, nil
	case lex.FunctorParen:
		args, err := p.argList()
		if err != nil {
			return nil, 0, err
		}
		return term.New(t.Text, args...), 0, nil
	case lex.Punct:
		switch t.Text {
		case "(":
			inner, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, 0, err
			}
			return inner, 0, nil
		case "[":
			return p.list()
		case "{":
			if p.peek().Kind == lex.Punct && p.peek().Text == "}" {
				p.next()
				return term.Atom("{}"), 0, nil
			}
			inner, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, 0, err
			}
			return term.New("{}", inner), 0, nil
		}
		return nil, 0, p.errf(t, "unexpected %q", t.Text)
	case lex.AtomTok:
		return p.atomOrPrefix(t, maxPrec)
	}
	return nil, 0, p.errf(t, "unexpected token %v", t)
}

func (p *Parser) atomOrPrefix(t lex.Token, maxPrec int) (term.Term, int, error) {
	name := t.Text

	// Special-case negative numeric literals: '-' immediately before a
	// number folds into the literal, as in standard Prolog readers.
	if name == "-" || name == "+" {
		nt := p.peek()
		if nt.Kind == lex.IntTok {
			p.next()
			if name == "-" {
				return term.Int(-nt.Int), 0, nil
			}
			return term.Int(nt.Int), 0, nil
		}
		if nt.Kind == lex.FloatTok {
			p.next()
			if name == "-" {
				return term.Float(-nt.Float), 0, nil
			}
			return term.Float(nt.Float), 0, nil
		}
	}

	if op, ok := p.ops.Prefix(name); ok && op.Priority <= maxPrec && p.startsTerm(p.peek()) {
		_, ra := argPriorities(op)
		arg, err := p.parse(ra)
		if err != nil {
			return nil, 0, err
		}
		return term.New(name, arg), op.Priority, nil
	}
	return term.Atom(name), p.atomPrec(name), nil
}

// atomPrec: an atom that is also an operator carries its operator priority
// when used as an operand (standard reader subtlety); plain atoms are 0.
func (p *Parser) atomPrec(name string) int {
	max := 0
	if op, ok := p.ops.Infix(name); ok && op.Priority > max {
		max = op.Priority
	}
	if op, ok := p.ops.Prefix(name); ok && op.Priority > max {
		max = op.Priority
	}
	return max
}

// startsTerm reports whether tok could begin a term (so "- foo" parses as
// -(foo) but "f(-, x)" keeps '-' as a plain atom).
func (p *Parser) startsTerm(tok lex.Token) bool {
	switch tok.Kind {
	case lex.IntTok, lex.FloatTok, lex.VarTok, lex.StrTok, lex.FunctorParen:
		return true
	case lex.AtomTok:
		// An infix operator cannot start a term unless also prefix.
		if _, isInfix := p.ops.Infix(tok.Text); isInfix {
			_, isPrefix := p.ops.Prefix(tok.Text)
			return isPrefix
		}
		return true
	case lex.Punct:
		return tok.Text == "(" || tok.Text == "[" || tok.Text == "{"
	}
	return false
}

func (p *Parser) argList() ([]term.Term, error) {
	var args []term.Term
	for {
		a, err := p.parse(999) // ',' at 1000 separates arguments
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		t := p.next()
		if t.Kind != lex.Punct {
			return nil, p.errf(t, "expected ',' or ')' in argument list, found %v", t)
		}
		switch t.Text {
		case ",":
			continue
		case ")":
			return args, nil
		default:
			return nil, p.errf(t, "expected ',' or ')' in argument list, found %q", t.Text)
		}
	}
}

func (p *Parser) list() (term.Term, int, error) {
	if p.peek().Kind == lex.Punct && p.peek().Text == "]" {
		p.next()
		return term.NilAtom, 0, nil
	}
	var elems []term.Term
	tail := term.Term(term.NilAtom)
	for {
		e, err := p.parse(999)
		if err != nil {
			return nil, 0, err
		}
		elems = append(elems, e)
		t := p.next()
		if t.Kind != lex.Punct {
			return nil, 0, p.errf(t, "expected ',', '|' or ']' in list, found %v", t)
		}
		switch t.Text {
		case ",":
			continue
		case "|":
			tl, err := p.parse(999)
			if err != nil {
				return nil, 0, err
			}
			tail = tl
			if err := p.expectPunct("]"); err != nil {
				return nil, 0, err
			}
			return term.ListTail(tail, elems...), 0, nil
		case "]":
			return term.ListTail(tail, elems...), 0, nil
		default:
			return nil, 0, p.errf(t, "expected ',', '|' or ']' in list, found %q", t.Text)
		}
	}
}

func (p *Parser) expectPunct(s string) error {
	t := p.next()
	if t.Kind != lex.Punct || t.Text != s {
		return p.errf(t, "expected %q, found %v", s, t)
	}
	return nil
}

func (p *Parser) variable(name string) term.Term {
	if name == "_" {
		return term.NewVar("_")
	}
	if v, ok := p.vars[name]; ok {
		return v
	}
	v := term.NewVar(name)
	p.vars[name] = v
	if !strings.HasPrefix(name, "_") {
		p.VarNames = append(p.VarNames, name)
	}
	return v
}

// NamedVars returns the named variables of the most recently read clause as
// a name→variable map (for answer substitution display).
func (p *Parser) NamedVars() map[string]*term.Var {
	out := make(map[string]*term.Var, len(p.vars))
	for k, v := range p.vars {
		out[k] = v
	}
	return out
}
