package jimple

import (
	"testing"
	"testing/quick"
)

// checkFresh asserts that s's Key and SubSigKey equal a fresh render of
// its fields.
func checkFresh(t *testing.T, what string, s Sig) {
	t.Helper()
	if got, want := s.Key(), s.render(true); got != want {
		t.Errorf("%s: Key() = %q, fresh render %q", what, got, want)
	}
	if got, want := s.SubSigKey(), s.render(false); got != want {
		t.Errorf("%s: SubSigKey() = %q, fresh render %q", what, got, want)
	}
}

func keyedSigs(t *testing.T) []Sig {
	t.Helper()
	parsed, err := ParseSigKey("com.http.Client.get(java.lang.String,int)com.http.Response")
	if err != nil {
		t.Fatal(err)
	}
	return []Sig{
		parsed,
		MakeSig("a.B", "<init>", nil, TypeVoid).Keyed(),
		MakeSig("com.app.Main", "onCreate", []string{"android.os.Bundle"}, TypeVoid).Keyed(),
		MakeSig("x.Y", "f", []string{"int", "long", "x.Y[]"}, "x.Y").Keyed(),
	}
}

// TestSigKeyCacheIsFreshRender pins that a Sig carrying its key (ParseSigKey,
// Keyed) answers Key and SubSigKey with exactly a fresh render of its
// fields, and that it really serves them from the cache: neither call
// allocates.
func TestSigKeyCacheIsFreshRender(t *testing.T) {
	for _, s := range keyedSigs(t) {
		if !s.keyed() {
			t.Fatalf("%s: key not cached", s.render(true))
		}
		checkFresh(t, "keyed", s)
		if n := testing.AllocsPerRun(10, func() { _, _ = s.Key(), s.SubSigKey() }); n != 0 {
			t.Errorf("%s: Key+SubSigKey allocate %.0f times, want 0", s.Key(), n)
		}
	}
}

// TestSigKeyCacheNeverStale mutates copies of keyed Sigs field by field —
// including same-length edits a length check alone would miss, an
// element rewritten in a copied Params array, and WithClass — and
// requires every copy to answer with a fresh render, never the old key.
func TestSigKeyCacheNeverStale(t *testing.T) {
	for _, s := range keyedSigs(t) {
		old := s.Key()
		muts := map[string]func(c *Sig){
			"class":           func(c *Sig) { c.Class = "q.Other" },
			"class same len":  func(c *Sig) { c.Class = c.Class[:len(c.Class)-1] + "Z" },
			"name":            func(c *Sig) { c.Name = "renamed" },
			"name same len":   func(c *Sig) { c.Name = "Q" + c.Name[1:] },
			"ret":             func(c *Sig) { c.Ret = TypeInt + "[]" },
			"ret same len":    func(c *Sig) { c.Ret = c.Ret[:len(c.Ret)-1] + "Z" },
			"params appended": func(c *Sig) { c.Params = append(append([]string(nil), c.Params...), "extra") },
			"params dropped":  func(c *Sig) { c.Params = nil },
			"params element same len": func(c *Sig) {
				c.Params = append([]string(nil), c.Params...)
				if len(c.Params) == 0 {
					c.Params = []string{"q"}
					return
				}
				last := len(c.Params) - 1 // a private array, rewritten in place
				c.Params[last] = "Z" + c.Params[last][1:]
			},
			"class and name swap boundary": func(c *Sig) { c.Class, c.Name = c.Class+"."+c.Name, "m" },
		}
		for what, mut := range muts {
			c := s
			mut(&c)
			checkFresh(t, what, c)
			if c.render(true) != old && c.Key() == old {
				t.Errorf("%s: copy of %q served the stale key", what, old)
			}
		}
		w := s.WithClass("other.Decl")
		checkFresh(t, "WithClass", w)
		if w.Key() == old {
			t.Errorf("WithClass served the original key %q", old)
		}
		// The original is untouched by its copies' edits.
		checkFresh(t, "original", s)
		if s.Key() != old {
			t.Errorf("original key changed: %q -> %q", old, s.Key())
		}
	}
}

// TestQuickSigKeyCache: for random signatures, a keyed copy with any one
// field replaced by a random value still answers with a fresh render.
func TestQuickSigKeyCache(t *testing.T) {
	f := func(cls, name, p1, p2, ret, repl string, field uint8) bool {
		s := MakeSig(cls, name, []string{p1, p2}, ret).Keyed()
		if s.Key() != s.render(true) || s.SubSigKey() != s.render(false) {
			return false
		}
		c := s
		switch field % 5 {
		case 0:
			c.Class = repl
		case 1:
			c.Name = repl
		case 2:
			c.Ret = repl
		case 3:
			c.Params = []string{repl}
		case 4:
			c.Params = []string{p1, repl}
		}
		return c.Key() == c.render(true) && c.SubSigKey() == c.render(false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
