package term

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// String renders the term in Edinburgh syntax with list notation and atom
// quoting. Operators are not reconstructed; compound terms print in
// canonical functional notation, which the parser accepts back.
//
// The Append functions are the printing rules themselves — quoting, float
// form, variable names — for callers that print without a Term in hand
// (pif.AppendClause renders stored words); the String methods are built
// on them, so there is one of each rule.

func (a Atom) String() string {
	if AtomBare(string(a)) {
		return string(a)
	}
	return string(appendQuoted(nil, string(a)))
}

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

func (f Float) String() string {
	var b [32]byte
	return string(AppendFloat(b[:0], float64(f)))
}

func (v *Var) String() string {
	if v.Ref != nil {
		return Deref(v).String()
	}
	return v.displayName()
}

func (c *Compound) String() string { return string(appendTerm(nil, c)) }

// AppendFloat appends f the way Float prints: shortest round-trip 'g'
// form, with ".0" added when that would read back as an integer.
func AppendFloat(dst []byte, f float64) []byte {
	n := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	if !bytes.ContainsAny(dst[n:], ".eE") {
		dst = append(dst, ".0"...)
	}
	return dst
}

// NextVarID draws the next id from the counter NewVar numbers variables
// with, for a printer that names an anonymous variable without building it.
func NextVarID() uint64 { return varCounter.Add(1) }

// AppendVarName appends the printed name of an unbound variable: its
// source name, or _G<id> when it has none (machine-generated, or "_").
func AppendVarName(dst []byte, name string, id uint64) []byte {
	if name != "" && name != "_" {
		return append(dst, name...)
	}
	return strconv.AppendUint(append(dst, "_G"...), id, 10)
}

func appendTerm(dst []byte, t Term) []byte {
	switch t := Deref(t).(type) {
	case Atom:
		return AppendAtom(dst, string(t))
	case Int:
		return strconv.AppendInt(dst, int64(t), 10)
	case Float:
		return AppendFloat(dst, float64(t))
	case *Var:
		return AppendVarName(dst, t.Name, t.id)
	case *Compound:
		return appendCompound(dst, t)
	default:
		return append(dst, t.String()...)
	}
}

func appendCompound(dst []byte, c *Compound) []byte {
	if c.Functor == ConsFunctor && len(c.Args) == 2 {
		return appendList(dst, c)
	}
	// The control constructs print infix, parenthesised, so bodies read
	// naturally and re-parse exactly.
	if len(c.Args) == 2 && ControlOp(c.Functor) {
		dst = append(dst, '(')
		dst = appendTerm(dst, c.Args[0])
		dst = append(dst, c.Functor...)
		dst = appendTerm(dst, c.Args[1])
		return append(dst, ')')
	}
	dst = AppendAtom(dst, c.Functor)
	dst = append(dst, '(')
	for i, a := range c.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTerm(dst, a)
	}
	return append(dst, ')')
}

func appendList(dst []byte, c *Compound) []byte {
	dst = append(dst, '[')
	dst = appendTerm(dst, c.Args[0])
	t := Deref(c.Args[1])
	for {
		if t == NilAtom {
			return append(dst, ']')
		}
		if cc, ok := t.(*Compound); ok && cc.Functor == ConsFunctor && len(cc.Args) == 2 {
			dst = append(dst, ',')
			dst = appendTerm(dst, cc.Args[0])
			t = Deref(cc.Args[1])
			continue
		}
		dst = append(dst, '|')
		dst = appendTerm(dst, t)
		return append(dst, ']')
	}
}

// ControlOp reports whether f is one of the control operators a binary
// compound prints infix.
func ControlOp(f string) bool {
	switch f {
	case ",", ";", "->", ":-":
		return true
	}
	return false
}

// AppendAtom appends the atom in valid Edinburgh source form, adding
// quotes when the bare text would not read back as a single atom token.
func AppendAtom(dst []byte, s string) []byte {
	if AtomBare(s) {
		return append(dst, s...)
	}
	return appendQuoted(dst, s)
}

func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '\'')
	for _, r := range s {
		switch r {
		case '\'':
			dst = append(dst, `\'`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '\'')
}

// AtomBare reports whether the atom prints without quotes. It depends on
// the text alone, so a symbol table can record it once per symbol.
func AtomBare(s string) bool {
	if s == "" {
		return false
	}
	switch s {
	case "[]", "{}", "!", ";":
		return true
	}
	if isSoloLower(s) {
		return true
	}
	return isSymbolicAtom(s)
}

func isSoloLower(s string) bool {
	for i, r := range s {
		if i == 0 {
			if !(r >= 'a' && r <= 'z') {
				return false
			}
			continue
		}
		if !isAlnum(r) {
			return false
		}
	}
	return true
}

func isAlnum(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolicAtom(s string) bool {
	for _, r := range s {
		if !strings.ContainsRune(symbolChars, r) {
			return false
		}
	}
	return s != "."
}

// Format implements fmt.Formatter-ish convenience: %v and %s both print the
// term; other verbs fall back to the default behaviour via Sprintf on the
// string form. Only *Compound needs it explicitly — the scalar types already
// print correctly — but declaring on Compound keeps %d etc. from exploding.
func (c *Compound) Format(f fmt.State, verb rune) {
	fmt.Fprint(f, c.String())
}
