// Package hierarchy builds the class-hierarchy graph of a jimple.Program
// and answers the subtype and dispatch queries that call-graph
// construction (class-hierarchy analysis, CHA) requires.
package hierarchy

import (
	"sort"
	"sync"

	"repro/internal/jimple"
)

// Hierarchy is an immutable view of a program's class hierarchy.
//
// New indexes a whole program. Layer indexes a program's classes over a
// read-only base Hierarchy instead: the scan pipeline indexes the
// framework and library-stub model once per process and layers each app
// over it, so a scan indexes only the app's own classes. A layered
// Hierarchy answers every query exactly as New would over the merged
// program (Program.Merge, the layered program winning), including for a
// layered class that shadows a base class of the same name.
type Hierarchy struct {
	// base is the layer underneath, or nil. Names this layer does not
	// define resolve there. Nothing writes to a base, so one base can
	// serve any number of concurrent scans.
	base *Hierarchy
	prog *jimple.Program

	// subsOf maps a name to its direct subclasses and implementers. In a
	// layered Hierarchy it holds only the names this layer's classes
	// touch, each already merged with the base's list; any other name
	// resolves in the base.
	subsOf   map[string][]string
	supersOf map[string][]string // direct superclass + interfaces

	// methodIdx maps each defined class to its methods by subsignature
	// (first declaration wins, matching Class.Method's linear scan), and
	// superOf maps it to its superclass name. Together they make method
	// lookup a pair of map probes instead of a linear subsignature render
	// per declared method per query. A class is defined in this layer iff
	// it has a methodIdx entry.
	methodIdx map[string]map[string]*jimple.Method
	superOf   map[string]string

	// bodied lists the classes of the merged view that declare at least
	// one concrete method, sorted by name: the classes call-graph
	// construction visits.
	bodied []*jimple.Class

	// dispatchMemo caches CHA dispatch results per (kind-band, declared
	// class, subsignature); the same framework callee is invoked from many
	// sites, and each re-resolution used to redo the subtree walk and
	// re-render every candidate's key. A layered Hierarchy memoizes in its
	// own table and never in its base's. Guarded by mu so a Hierarchy
	// stays safe to share between goroutines.
	mu           sync.Mutex
	dispatchMemo map[dispatchKey][]*jimple.Method
}

type dispatchKey struct {
	virtual bool
	class   string
	subsig  string
}

// New indexes the hierarchy of p. Types referenced but not defined in p
// (phantom classes) participate with no members and no known supertypes.
func New(p *jimple.Program) *Hierarchy {
	return Layer(nil, p)
}

// Layer indexes the classes of p over base (nil means none, as in New).
// The result answers every query as New would over p merged with base's
// program: where p redefines a base class, p's definition wins and the
// base class's supertype edges are dropped. base is only read. Neither
// base nor p's class set may change afterwards.
func Layer(base *Hierarchy, p *jimple.Program) *Hierarchy {
	h := &Hierarchy{
		base:         base,
		prog:         p,
		subsOf:       make(map[string][]string),
		supersOf:     make(map[string][]string),
		methodIdx:    make(map[string]map[string]*jimple.Method),
		superOf:      make(map[string]string),
		dispatchMemo: make(map[dispatchKey][]*jimple.Method),
	}
	classes := p.Classes()
	for _, c := range classes {
		if c.Super != "" {
			h.supersOf[c.Name] = append(h.supersOf[c.Name], c.Super)
			h.subsOf[c.Super] = append(h.subsOf[c.Super], c.Name)
		}
		for _, i := range c.Interfaces {
			h.supersOf[c.Name] = append(h.supersOf[c.Name], i)
			h.subsOf[i] = append(h.subsOf[i], c.Name)
		}
		mm := make(map[string]*jimple.Method, len(c.Methods))
		for _, m := range c.Methods {
			k := m.Sig.SubSigKey()
			if _, dup := mm[k]; !dup {
				mm[k] = m
			}
		}
		h.methodIdx[c.Name] = mm
		h.superOf[c.Name] = c.Super
		if hasConcreteMethod(c) {
			h.bodied = append(h.bodied, c)
		}
	}
	if base != nil {
		h.mergeBase(classes)
	}
	for _, m := range []map[string][]string{h.subsOf, h.supersOf} {
		for k := range m {
			sort.Strings(m[k])
		}
	}
	return h
}

// mergeBase folds the base's subtype lists and bodied classes into this
// layer wherever its classes change them. A name's merged subtype list
// is this layer's own subtypes plus the base's minus the base classes
// this layer redefines; the names needing one are the supertypes of this
// layer's classes and the base supertypes of the classes it shadows.
func (h *Hierarchy) mergeBase(classes []*jimple.Class) {
	for t, own := range h.subsOf {
		h.subsOf[t] = append(own, h.baseSubs(t)...)
	}
	for _, c := range classes {
		if !h.base.defines(c.Name) {
			continue
		}
		for _, t := range h.base.supers(c.Name) {
			if _, done := h.subsOf[t]; !done {
				h.subsOf[t] = h.baseSubs(t)
			}
		}
	}
	var bodied []*jimple.Class
	own, inherited := h.bodied, h.base.bodied
	for len(own) > 0 || len(inherited) > 0 {
		switch {
		case len(inherited) > 0 && h.defines(inherited[0].Name):
			inherited = inherited[1:] // shadowed
		case len(inherited) == 0 || len(own) > 0 && own[0].Name < inherited[0].Name:
			bodied, own = append(bodied, own[0]), own[1:]
		default:
			bodied, inherited = append(bodied, inherited[0]), inherited[1:]
		}
	}
	h.bodied = bodied
}

// baseSubs returns the base's direct subtypes of t, minus the classes
// this layer redefines, as a fresh slice.
func (h *Hierarchy) baseSubs(t string) []string {
	var out []string
	for _, s := range h.base.subs(t) {
		if !h.defines(s) {
			out = append(out, s)
		}
	}
	return out
}

// defines reports whether this layer itself defines class c.
func (h *Hierarchy) defines(c string) bool {
	_, ok := h.methodIdx[c]
	return ok
}

// supers returns c's direct supertypes, sorted.
func (h *Hierarchy) supers(c string) []string {
	if h.base == nil || h.defines(c) {
		return h.supersOf[c]
	}
	return h.base.supers(c)
}

// subs returns t's direct subtypes, sorted.
func (h *Hierarchy) subs(t string) []string {
	if s, ok := h.subsOf[t]; ok || h.base == nil {
		return s
	}
	return h.base.subs(t)
}

// class returns c's method index and superclass; defined is false when
// no layer defines c.
func (h *Hierarchy) class(c string) (methods map[string]*jimple.Method, super string, defined bool) {
	if mm, ok := h.methodIdx[c]; ok {
		return mm, h.superOf[c], true
	}
	if h.base == nil {
		return nil, "", false
	}
	return h.base.class(c)
}

// Class returns the named class of the merged view, or nil.
func (h *Hierarchy) Class(name string) *jimple.Class {
	if c := h.prog.Class(name); c != nil || h.base == nil {
		return c
	}
	return h.base.Class(name)
}

// BodiedClasses returns the classes that declare at least one concrete
// method, sorted by name. The slice is shared and must not be modified.
// Whether a method has a body is sampled when the Hierarchy is built.
func (h *Hierarchy) BodiedClasses() []*jimple.Class { return h.bodied }

func hasConcreteMethod(c *jimple.Class) bool {
	for _, m := range c.Methods {
		if m.HasBody() {
			return true
		}
	}
	return false
}

// IsSubtype reports whether sub is the same as, or a transitive subtype
// (subclass or implementer) of, super.
func (h *Hierarchy) IsSubtype(sub, super string) bool {
	if sub == super {
		return true
	}
	seen := map[string]bool{sub: true}
	stack := []string{sub}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range h.supers(c) {
			if s == super {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// SubtypesOf returns all transitive subtypes of t, including t itself,
// sorted by name.
func (h *Hierarchy) SubtypesOf(t string) []string {
	seen := map[string]bool{t: true}
	stack := []string{t}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range h.subs(c) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Supertypes returns all transitive supertypes of t (not including t),
// sorted by name.
func (h *Hierarchy) Supertypes(t string) []string {
	seen := map[string]bool{}
	stack := []string{t}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range h.supers(c) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// LookupMethod resolves a method by subsignature starting at class c and
// walking up the superclass chain, as Java virtual lookup does. Returns
// nil if no definition is found in the program.
func (h *Hierarchy) LookupMethod(c, subSigKey string) *jimple.Method {
	for cur := c; cur != ""; {
		mm, super, defined := h.class(cur)
		if !defined {
			return nil
		}
		if m := mm[subSigKey]; m != nil {
			return m
		}
		cur = super
	}
	return nil
}

// Dispatch resolves the possible concrete targets of an invocation using
// CHA. For virtual/interface invokes the result is every definition of the
// subsignature on the declared class's subtree (plus the inherited
// definition if the declared class itself doesn't define it). For special
// and static invokes it is the single static target.
func (h *Hierarchy) Dispatch(e jimple.InvokeExpr) []*jimple.Method {
	virtual := e.Kind != jimple.InvokeStatic && e.Kind != jimple.InvokeSpecial
	sub := e.Callee.SubSigKey()
	key := dispatchKey{virtual: virtual, class: e.Callee.Class, subsig: sub}
	h.mu.Lock()
	if out, ok := h.dispatchMemo[key]; ok {
		h.mu.Unlock()
		return out
	}
	h.mu.Unlock()
	out := h.dispatch(virtual, e.Callee.Class, sub)
	h.mu.Lock()
	h.dispatchMemo[key] = out
	h.mu.Unlock()
	return out
}

// dispatch computes an uncached CHA resolution. Callers must treat the
// returned slice as read-only: it is memoized and shared.
func (h *Hierarchy) dispatch(virtual bool, class, sub string) []*jimple.Method {
	if !virtual {
		if m := h.LookupMethod(class, sub); m != nil && m.HasBody() {
			return []*jimple.Method{m}
		}
		return nil
	}
	var out []*jimple.Method
	seen := make(map[*jimple.Method]bool)
	for _, t := range h.SubtypesOf(class) {
		m := h.LookupMethod(t, sub)
		if m == nil || !m.HasBody() {
			continue
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sig.Key() < out[j].Sig.Key() })
	return out
}

// DeclaredDispatch resolves only against the declared type (no subtree
// search). It exists as the ablation baseline for the CHA comparison
// benchmark: it misses overrides in subclasses.
func (h *Hierarchy) DeclaredDispatch(e jimple.InvokeExpr) []*jimple.Method {
	if m := h.LookupMethod(e.Callee.Class, e.Callee.SubSigKey()); m != nil && m.HasBody() {
		return []*jimple.Method{m}
	}
	return nil
}
