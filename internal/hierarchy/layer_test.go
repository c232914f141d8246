package hierarchy_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
	"repro/internal/testutil"
)

// modelProgram is the program apimodel.Model indexes.
func modelProgram() *jimple.Program {
	p := jimple.NewProgram()
	p.Merge(android.Framework())
	p.Merge(apimodel.Stubs())
	return p
}

// queryNames lists every name the hierarchies can be asked about: the
// merged program's classes, every type they mention, and a phantom.
func queryNames(merged *jimple.Program) []string {
	set := map[string]bool{"ghost.Phantom": true}
	for _, c := range merged.Classes() {
		set[c.Name] = true
		if c.Super != "" {
			set[c.Super] = true
		}
		for _, i := range c.Interfaces {
			set[i] = true
		}
		for _, m := range c.Methods {
			for _, l := range m.Locals {
				if !jimple.IsPrimitive(l.Type) {
					set[l.Type] = true
				}
			}
			for _, s := range m.Body {
				if inv, ok := jimple.InvokeOf(s); ok {
					set[inv.Callee.Class] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sigKeys(ms []*jimple.Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Sig.Key()
	}
	return out
}

func sameMethods(a, b []*jimple.Method) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertLayeredMatchesMerged checks that app layered over base, the
// hierarchy of baseProg, answers every query exactly as New over the two
// programs merged.
func assertLayeredMatchesMerged(t *testing.T, name string, base *hierarchy.Hierarchy, baseProg, app *jimple.Program) {
	t.Helper()
	merged := jimple.NewProgram()
	merged.Merge(app)
	merged.Merge(baseProg)
	want := hierarchy.New(merged)
	got := hierarchy.Layer(base, app)
	names := queryNames(merged)

	if !reflect.DeepEqual(got.BodiedClasses(), want.BodiedClasses()) {
		t.Errorf("%s: BodiedClasses differ", name)
	}
	// Subsignatures declared or invoked anywhere, for method lookups.
	subset := map[string]bool{"nosuch()void": true}
	var invokes []jimple.InvokeExpr
	for _, c := range merged.Classes() {
		for _, m := range c.Methods {
			subset[m.Sig.SubSigKey()] = true
			for _, s := range m.Body {
				if inv, ok := jimple.InvokeOf(s); ok {
					subset[inv.Callee.SubSigKey()] = true
					invokes = append(invokes, inv)
				}
			}
		}
	}
	var appClasses, touched []string
	for _, c := range app.Classes() {
		appClasses = append(appClasses, c.Name)
		touched = append(touched, c.Name)
		touched = append(touched, want.Supertypes(c.Name)...)
	}
	for _, n := range names {
		if got.Class(n) != want.Class(n) {
			t.Errorf("%s: Class(%s) differs", name, n)
		}
		if g, w := got.Supertypes(n), want.Supertypes(n); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: Supertypes(%s) = %v, want %v", name, n, g, w)
		}
		if g, w := got.SubtypesOf(n), want.SubtypesOf(n); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: SubtypesOf(%s) = %v, want %v", name, n, g, w)
		}
		for _, a := range appClasses {
			if got.IsSubtype(a, n) != want.IsSubtype(a, n) || got.IsSubtype(n, a) != want.IsSubtype(n, a) {
				t.Errorf("%s: IsSubtype differs between %s and %s", name, a, n)
			}
		}
		for sub := range subset {
			if got.LookupMethod(n, sub) != want.LookupMethod(n, sub) {
				t.Errorf("%s: LookupMethod(%s, %s) differs", name, n, sub)
			}
		}
	}
	// Dispatch: every invoke in the program, plus each declared
	// subsignature of the app's classes invoked on every touched name,
	// under both dispatch bands.
	for _, c := range app.Classes() {
		for _, m := range c.Methods {
			for _, n := range touched {
				callee := m.Sig
				callee.Class = n
				for _, kind := range []jimple.InvokeKind{jimple.InvokeVirtual, jimple.InvokeStatic} {
					invokes = append(invokes, jimple.InvokeExpr{Kind: kind, Base: "o", Callee: callee})
				}
			}
		}
	}
	for _, inv := range invokes {
		if g, w := got.Dispatch(inv), want.Dispatch(inv); !sameMethods(g, w) {
			t.Errorf("%s: Dispatch(%s) = %v, want %v", name, inv.Callee.Key(), sigKeys(g), sigKeys(w))
		}
		if g, w := got.DeclaredDispatch(inv), want.DeclaredDispatch(inv); !sameMethods(g, w) {
			t.Errorf("%s: DeclaredDispatch(%s) = %v, want %v", name, inv.Callee.Key(), sigKeys(g), sigKeys(w))
		}
	}
}

func TestLayeredMatchesMergedOnCorpus(t *testing.T) {
	model := modelProgram()
	for _, seed := range []int64{42, 7} {
		apps, err := corpus.GenerateCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ca := range apps {
			if seed != 42 && ca.Golden {
				continue // the goldens are the same in every corpus
			}
			assertLayeredMatchesMerged(t, ca.Name, apimodel.Model(), model, ca.App.Program)
		}
	}
}

func TestLayeredShadowing(t *testing.T) {
	app := jimple.MustParse(testutil.ShadowModelApp)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	assertLayeredMatchesMerged(t, "shadow", apimodel.Model(), modelProgram(), app)

	// Spot-check the shadowing rule itself, not only agreement with the
	// merged view.
	h := hierarchy.Layer(apimodel.Model(), app)
	if !h.IsSubtype(android.ClassIntentService, android.ClassHandler) {
		t.Error("base IntentService does not see the shadowing Service's new superclass")
	}
	for _, s := range h.SubtypesOf(android.ClassContext) {
		if s == android.ClassService || s == android.ClassIntentService {
			t.Errorf("%s still listed under the shadowed Service's old superclass", s)
		}
	}
	if m := h.LookupMethod("com.android.volley.toolbox.StringRequest", "retry()void"); m == nil || m.Sig.Class != "com.android.volley.Request" || !m.HasBody() {
		t.Errorf("base StringRequest does not inherit the shadowing Request's method: %v", m)
	}
	if c := h.Class("com.android.volley.Request"); c != app.Class("com.android.volley.Request") {
		t.Error("Class does not return the shadowing definition")
	}
}

// TestLayerOverBodiedBase covers what the real model cannot: a base with
// concrete methods, one of whose classes the layer redefines without any.
func TestLayerOverBodiedBase(t *testing.T) {
	base := jimple.MustParse(`class java.lang.Object {
}
class x.A extends java.lang.Object {
  method m()void {
    return
  }
}
class x.B extends x.A {
  method m()void {
    return
  }
}
class x.C extends x.B {
}
class x.D extends x.A {
  method m()void {
    return
  }
}`)
	app := jimple.MustParse(`class x.B extends x.D {
  method abstract m()void
}
class y.E extends x.C {
  method m()void {
    return
  }
}`)
	assertLayeredMatchesMerged(t, "bodied-base", hierarchy.New(base), base, app)
	var names []string
	for _, c := range hierarchy.Layer(hierarchy.New(base), app).BodiedClasses() {
		names = append(names, c.Name)
	}
	if want := []string{"x.A", "x.D", "y.E"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BodiedClasses = %v, want %v", names, want)
	}
}

// TestSharedModelStaysAsBuilt runs concurrent scans, validation replays
// included, over the one process-wide model layer and checks that they
// leave its indexes and dispatch memo exactly as built. Under -race it
// also proves the layer is only ever read.
func TestSharedModelStaysAsBuilt(t *testing.T) {
	model := apimodel.Model()
	before := hierarchy.Snapshot(model)
	apps, err := corpus.GenerateCorpus(42)
	if err != nil {
		t.Fatal(err)
	}
	n := 24
	if testing.Short() {
		n = 8
	}
	data := make([][]byte, n)
	for i := range data {
		if data[i], err = apk.Encode(apps[i].App); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc := core.NewWithOptions(core.Options{Workers: 2, Validate: true})
			for i := range data {
				app, err := apk.Decode(data[(i+g*5)%n])
				if err != nil {
					t.Error(err)
					return
				}
				if res := nc.ScanApp(app); res.Incomplete {
					t.Errorf("scan %d degraded", i)
				}
			}
		}(g)
	}
	wg.Wait()
	if after := hierarchy.Snapshot(model); !reflect.DeepEqual(before, after) {
		t.Error("concurrent scans changed the shared model layer")
	}
	if len(before.Memo) != 0 {
		t.Errorf("the shared model layer holds %d dispatch memo entries; layered scans must memoize in their own", len(before.Memo))
	}
}
