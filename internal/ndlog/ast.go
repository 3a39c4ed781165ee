package ndlog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rel"
)

// Program is a parsed NDlog program: materialize declarations plus rules.
type Program struct {
	Name         string
	Materialized []*MaterializeDecl
	Rules        []*Rule
}

// MaterializeDecl mirrors NDlog's
// materialize(name, lifetime, size, keys(1,2,...)). Lifetime/size are
// kept textual ("infinity" or a number); keys are 1-based column
// positions including the location column, per NDlog convention.
type MaterializeDecl struct {
	Name     string
	Lifetime string
	Size     string
	Keys     []int
}

func (m *MaterializeDecl) String() string {
	keys := make([]string, len(m.Keys))
	for i, k := range m.Keys {
		keys[i] = fmt.Sprint(k)
	}
	return fmt.Sprintf("materialize(%s, %s, %s, keys(%s)).", m.Name, m.Lifetime, m.Size, strings.Join(keys, ","))
}

// Rule is one NDlog rule. Maybe rules (h ?- b) describe *possible*
// dependencies through a legacy black box and are never executed by the
// forward engine; the proxy matches them against observed messages.
type Rule struct {
	Label string
	Maybe bool
	Head  *Atom
	Body  []Term
}

// Atom is a predicate application rel(@L, A1, ...). LocArg is the index
// in Args of the argument that carried the @ marker, or -1.
type Atom struct {
	Rel    string
	Args   []Arg
	LocArg int
}

// Term is a body element: an *Atom, a *Cond, or an *Assign.
type Term interface {
	isTerm()
	String() string
	// Vars appends the variables read by the term.
	Vars(map[string]bool)
}

// Cond is a comparison between two expressions, e.g. C < C2 or
// f_isExtend(R2,R1,AS) == 1.
type Cond struct {
	Op    string // < <= > >= == !=
	Left  Expr
	Right Expr
}

// Assign binds a fresh variable to an expression: C := C1 + C2.
type Assign struct {
	Var  string
	Expr Expr
}

func (*Atom) isTerm()   {}
func (*Cond) isTerm()   {}
func (*Assign) isTerm() {}

// Arg is a head/body atom argument: a variable, a constant, an
// aggregate (head only), or the don't-care underscore.
type Arg interface {
	isArg()
	String() string
}

// VarArg references a rule variable.
type VarArg struct{ Name string }

// ConstArg is a literal value.
type ConstArg struct{ Val rel.Value }

// AggArg is a head aggregate such as min<C> or count<>.
type AggArg struct {
	Func string // min, max, count, sum, avg
	Var  string // aggregated variable; empty for count<>
}

// Wildcard is the _ don't-care argument (body atoms only).
type Wildcard struct{}

func (*VarArg) isArg()   {}
func (*ConstArg) isArg() {}
func (*AggArg) isArg()   {}
func (*Wildcard) isArg() {}

func (a *VarArg) String() string   { return a.Name }
func (a *ConstArg) String() string { return a.Val.String() }
func (a *AggArg) String() string   { return fmt.Sprintf("%s<%s>", a.Func, a.Var) }
func (*Wildcard) String() string   { return "_" }

// Expr is an arithmetic/functional expression in conditions and
// assignments.
type Expr interface {
	isExpr()
	String() string
	ExprVars(map[string]bool)
}

// VarExpr reads a variable.
type VarExpr struct{ Name string }

// ConstExpr is a literal.
type ConstExpr struct{ Val rel.Value }

// BinExpr applies + - * / %.
type BinExpr struct {
	Op   string
	L, R Expr
}

// CallExpr invokes a builtin function f_name(args...).
type CallExpr struct {
	Func string
	Args []Expr
}

func (*VarExpr) isExpr()   {}
func (*ConstExpr) isExpr() {}
func (*BinExpr) isExpr()   {}
func (*CallExpr) isExpr()  {}

func (e *VarExpr) String() string   { return e.Name }
func (e *ConstExpr) String() string { return e.Val.String() }
func (e *BinExpr) String() string   { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Func, strings.Join(parts, ", "))
}

func (e *VarExpr) ExprVars(m map[string]bool) { m[e.Name] = true }
func (*ConstExpr) ExprVars(map[string]bool)   {}
func (e *BinExpr) ExprVars(m map[string]bool) { e.L.ExprVars(m); e.R.ExprVars(m) }
func (e *CallExpr) ExprVars(m map[string]bool) {
	for _, a := range e.Args {
		a.ExprVars(m)
	}
}

// Vars for terms.
func (a *Atom) Vars(m map[string]bool) {
	for _, arg := range a.Args {
		if v, ok := arg.(*VarArg); ok {
			m[v.Name] = true
		}
		if g, ok := arg.(*AggArg); ok && g.Var != "" {
			m[g.Var] = true
		}
	}
}

func (c *Cond) Vars(m map[string]bool)   { c.Left.ExprVars(m); c.Right.ExprVars(m) }
func (s *Assign) Vars(m map[string]bool) { s.Expr.ExprVars(m) }

// LocVar returns the location variable name of the atom, if its @arg is
// a variable.
func (a *Atom) LocVar() (string, bool) {
	if a.LocArg < 0 || a.LocArg >= len(a.Args) {
		return "", false
	}
	v, ok := a.Args[a.LocArg].(*VarArg)
	if !ok {
		return "", false
	}
	return v.Name, true
}

// HasAgg reports whether the atom's arguments contain an aggregate.
func (a *Atom) HasAgg() bool {
	for _, arg := range a.Args {
		if _, ok := arg.(*AggArg); ok {
			return true
		}
	}
	return false
}

// BodyAtoms returns the rule's body atoms in order.
func (r *Rule) BodyAtoms() []*Atom {
	var out []*Atom
	for _, t := range r.Body {
		if a, ok := t.(*Atom); ok {
			out = append(out, a)
		}
	}
	return out
}

// String renders an atom in NDlog syntax.
func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, arg := range a.Args {
		s := arg.String()
		if i == a.LocArg {
			s = "@" + s
		}
		parts[i] = s
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ", "))
}

func (c *Cond) String() string   { return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right) }
func (s *Assign) String() string { return fmt.Sprintf("%s := %s", s.Var, s.Expr) }

// String renders the rule in NDlog syntax.
func (r *Rule) String() string {
	op := ":-"
	if r.Maybe {
		op = "?-"
	}
	parts := make([]string, len(r.Body))
	for i, t := range r.Body {
		parts[i] = t.String()
	}
	label := r.Label
	if label != "" {
		label += " "
	}
	if len(parts) == 0 {
		return fmt.Sprintf("%s%s.", label, r.Head)
	}
	return fmt.Sprintf("%s%s %s %s.", label, r.Head, op, strings.Join(parts, ",\n    "))
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, m := range p.Materialized {
		b.WriteString(m.String())
		b.WriteByte('\n')
	}
	if len(p.Materialized) > 0 && len(p.Rules) > 0 {
		b.WriteByte('\n')
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Relations returns every relation name referenced by the program,
// sorted.
func (p *Program) Relations() []string {
	set := map[string]bool{}
	for _, m := range p.Materialized {
		set[m.Name] = true
	}
	for _, r := range p.Rules {
		set[r.Head.Rel] = true
		for _, a := range r.BodyAtoms() {
			set[a.Rel] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the rule (used by the rewriters, which
// must not mutate the input program).
func (r *Rule) Clone() *Rule {
	nr := &Rule{Label: r.Label, Maybe: r.Maybe, Head: r.Head.Clone()}
	for _, t := range r.Body {
		nr.Body = append(nr.Body, cloneTerm(t))
	}
	return nr
}

// Clone deep-copies an atom.
func (a *Atom) Clone() *Atom {
	na := &Atom{Rel: a.Rel, LocArg: a.LocArg, Args: make([]Arg, len(a.Args))}
	for i, arg := range a.Args {
		na.Args[i] = cloneArg(arg)
	}
	return na
}

func cloneTerm(t Term) Term {
	switch t := t.(type) {
	case *Atom:
		return t.Clone()
	case *Cond:
		return &Cond{Op: t.Op, Left: cloneExpr(t.Left), Right: cloneExpr(t.Right)}
	case *Assign:
		return &Assign{Var: t.Var, Expr: cloneExpr(t.Expr)}
	}
	panic("ndlog: unknown term type")
}

func cloneArg(a Arg) Arg {
	switch a := a.(type) {
	case *VarArg:
		return &VarArg{Name: a.Name}
	case *ConstArg:
		return &ConstArg{Val: a.Val}
	case *AggArg:
		return &AggArg{Func: a.Func, Var: a.Var}
	case *Wildcard:
		return &Wildcard{}
	}
	panic("ndlog: unknown arg type")
}

func cloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *VarExpr:
		return &VarExpr{Name: e.Name}
	case *ConstExpr:
		return &ConstExpr{Val: e.Val}
	case *BinExpr:
		return &BinExpr{Op: e.Op, L: cloneExpr(e.L), R: cloneExpr(e.R)}
	case *CallExpr:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = cloneExpr(a)
		}
		return &CallExpr{Func: e.Func, Args: args}
	}
	panic("ndlog: unknown expr type")
}
