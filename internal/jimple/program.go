package jimple

import (
	"fmt"
	"sort"
)

// LocalDecl declares a method-local variable with its static type.
type LocalDecl struct {
	Name string
	Type string
}

// Trap is an exception handler range: if a statement with index in
// [Begin, End) throws an exception assignable to Exception, control
// transfers to the statement at Handler.
type Trap struct {
	Begin     int
	End       int
	Handler   int
	Exception string
}

// Method is a method definition. Abstract and interface methods have a nil
// Body.
type Method struct {
	Sig      Sig
	Static   bool
	Abstract bool
	Locals   []LocalDecl
	Body     []Stmt
	Traps    []Trap
}

// HasBody reports whether the method has a concrete body.
func (m *Method) HasBody() bool { return !m.Abstract && m.Body != nil }

// LocalType returns the declared type of the named local, or "" if the
// local is not declared.
func (m *Method) LocalType(name string) string {
	for _, l := range m.Locals {
		if l.Name == name {
			return l.Type
		}
	}
	return ""
}

// Field is a field definition.
type Field struct {
	Name   string
	Type   string
	Static bool
}

// Class is a class or interface definition.
type Class struct {
	Name       string
	Super      string // "" only for java.lang.Object and roots of stub hierarchies
	Interfaces []string
	IsIface    bool
	Abstract   bool
	Fields     []*Field
	Methods    []*Method
}

// Method returns the method with the given subsignature key declared
// directly on c, or nil.
func (c *Class) Method(subSigKey string) *Method {
	for _, m := range c.Methods {
		if m.Sig.SubSigKey() == subSigKey {
			return m
		}
	}
	return nil
}

// MethodNamed returns the first method declared on c with the given name,
// or nil. Convenient in tests and generators where names are unique.
func (c *Class) MethodNamed(name string) *Method {
	for _, m := range c.Methods {
		if m.Sig.Name == name {
			return m
		}
	}
	return nil
}

// AddMethod appends m to the class, setting its declaring class.
func (c *Class) AddMethod(m *Method) *Method {
	m.Sig.Class = c.Name
	c.Methods = append(c.Methods, m)
	return m
}

// Program is a closed set of classes under analysis: the app's own classes
// plus whatever framework/library stub classes the app's hierarchy needs.
type Program struct {
	classes map[string]*Class
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// AddClass inserts c, replacing any prior class with the same name.
func (p *Program) AddClass(c *Class) *Class {
	p.classes[c.Name] = c
	return c
}

// Class returns the named class, or nil if it is not in the program.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// NumClasses returns the number of classes in the program.
func (p *Program) NumClasses() int { return len(p.classes) }

// Classes returns all classes sorted by name. The slice is freshly
// allocated; the *Class values are shared.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Method resolves a signature to its defining method by exact declaring
// class, or nil if absent.
func (p *Program) Method(sig Sig) *Method {
	c := p.classes[sig.Class]
	if c == nil {
		return nil
	}
	return c.Method(sig.SubSigKey())
}

// Merge adds every class of other into p. Classes already present in p are
// kept (p wins), so framework stubs can be merged under app classes that
// deliberately shadow them.
func (p *Program) Merge(other *Program) {
	for name, c := range other.classes {
		if _, exists := p.classes[name]; !exists {
			p.classes[name] = c
		}
	}
}

// RenderKeys caches the rendered key in the signature of every method p
// declares (Sig.Keyed). The framework and library-stub programs, built
// once and shared by every scan, call it before they are published, so
// each scan's lookups into them read keys instead of rendering them.
func (p *Program) RenderKeys() {
	for _, c := range p.classes {
		for _, m := range c.Methods {
			m.Sig = m.Sig.Keyed()
		}
	}
}

// NumStmts returns the total number of statements across all method
// bodies; a cheap size metric used in reports and benchmarks.
func (p *Program) NumStmts() int {
	n := 0
	for _, c := range p.classes {
		for _, m := range c.Methods {
			n += len(m.Body)
		}
	}
	return n
}

// Validate checks structural invariants of every method body: branch
// targets in range, traps well-formed, locals declared exactly once, and
// all used locals declared. It returns the first violation found, or nil.
func (p *Program) Validate() error {
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if err := validateMethod(m); err != nil {
				return fmt.Errorf("%s: %w", m.Sig.Key(), err)
			}
		}
	}
	return nil
}

func validateMethod(m *Method) error {
	if !m.HasBody() {
		if len(m.Body) > 0 {
			return fmt.Errorf("abstract method has a body")
		}
		return nil
	}
	if len(m.Body) == 0 {
		return fmt.Errorf("concrete method has an empty body")
	}
	declared := make(map[string]bool, len(m.Locals))
	for _, l := range m.Locals {
		if declared[l.Name] {
			return fmt.Errorf("local %q declared twice", l.Name)
		}
		if l.Name == "" || l.Type == "" {
			return fmt.Errorf("local with empty name or type")
		}
		declared[l.Name] = true
	}
	n := len(m.Body)
	var scratch []int
	var uses []string
	for i, s := range m.Body {
		if s == nil {
			return fmt.Errorf("nil statement at %d", i)
		}
		scratch = BranchTargets(scratch[:0], s)
		for _, t := range scratch {
			if t < 0 || t >= n {
				return fmt.Errorf("statement %d branches out of range (%d of %d)", i, t, n)
			}
		}
		uses = UsesOf(uses[:0], s)
		if d := DefOf(s); d != "" {
			uses = append(uses, d)
		}
		if a, ok := s.(*AssignStmt); ok {
			if f, isField := a.LHS.(FieldRef); isField && f.Base != "" {
				uses = append(uses, f.Base)
			}
		}
		for _, u := range uses {
			if !declared[u] {
				return fmt.Errorf("statement %d uses undeclared local %q", i, u)
			}
		}
	}
	for ti, t := range m.Traps {
		if t.Begin < 0 || t.End > n || t.Begin >= t.End {
			return fmt.Errorf("trap %d has bad range [%d,%d) of %d", ti, t.Begin, t.End, n)
		}
		if t.Handler < 0 || t.Handler >= n {
			return fmt.Errorf("trap %d has bad handler %d", ti, t.Handler)
		}
		if t.Exception == "" {
			return fmt.Errorf("trap %d has empty exception type", ti)
		}
	}
	return nil
}
