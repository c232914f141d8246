package callgraph_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
	"repro/internal/testutil"
)

func sortedEdges(es []callgraph.Edge) []callgraph.Edge {
	out := append([]callgraph.Edge(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Caller.Key() != b.Caller.Key() {
			return a.Caller.Key() < b.Caller.Key()
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Callee.Key() != b.Callee.Key() {
			return a.Callee.Key() < b.Callee.Key()
		}
		return a.Kind < b.Kind
	})
	return out
}

// assertLayeredGraphMatches builds the call graph over app layered on the
// shared model and over the merged program, under each option set, and
// requires the same entries, out-edges, in-edge multisets and counts.
func assertLayeredGraphMatches(t *testing.T, name string, app *jimple.Program, man *android.Manifest) {
	t.Helper()
	merged := jimple.NewProgram()
	merged.Merge(app)
	merged.Merge(android.Framework())
	merged.Merge(apimodel.Stubs())
	var keys []string
	for _, c := range merged.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				keys = append(keys, m.Sig.Key())
			}
		}
	}
	for _, opts := range []callgraph.Options{{}, {EnableICC: true}, {DeclaredDispatchOnly: true}} {
		want := callgraph.BuildWith(hierarchy.New(merged), man, opts)
		got := callgraph.BuildWith(hierarchy.Layer(apimodel.Model(), app), man, opts)
		if !reflect.DeepEqual(got.Entries(), want.Entries()) {
			t.Errorf("%s %+v: entries differ", name, opts)
		}
		if got.NumEdges() != want.NumEdges() || got.NumMethods() != want.NumMethods() {
			t.Errorf("%s %+v: %d edges over %d methods, want %d over %d", name, opts,
				got.NumEdges(), got.NumMethods(), want.NumEdges(), want.NumMethods())
		}
		for _, k := range keys {
			if got.Method(k) != want.Method(k) {
				t.Errorf("%s %+v: Method(%s) differs", name, opts, k)
			}
			if !reflect.DeepEqual(got.OutEdges(k), want.OutEdges(k)) {
				t.Errorf("%s %+v: OutEdges(%s) differ", name, opts, k)
			}
			if !reflect.DeepEqual(sortedEdges(got.InEdges(k)), sortedEdges(want.InEdges(k))) {
				t.Errorf("%s %+v: InEdges(%s) differ", name, opts, k)
			}
		}
	}
}

func TestLayeredGraphMatchesMergedOnCorpus(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		apps, err := corpus.GenerateCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ca := range apps {
			if seed != 42 && ca.Golden {
				continue // the goldens are the same in every corpus
			}
			assertLayeredGraphMatches(t, ca.Name, ca.App.Program, ca.App.Manifest)
		}
	}
}

func TestLayeredGraphShadowing(t *testing.T) {
	app := jimple.MustParse(testutil.ShadowModelApp)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	man := &android.Manifest{Package: "com.fx", Services: []string{"com.fx.Sync"}}
	assertLayeredGraphMatches(t, "shadow", app, man)

	g := callgraph.Build(hierarchy.Layer(apimodel.Model(), app), man)
	calls := map[string]bool{}
	for _, e := range g.OutEdges("com.fx.Sync.onHandleIntent(android.content.Intent)void") {
		calls[e.Kind.String()+" "+e.Callee.Key()] = true
	}
	for _, want := range []string{
		"call android.app.Service.onCreate()void",
		"async android.app.Service.run()void",
		"call com.fx.MyReq.retry()void",
		"call com.android.volley.Request.retry()void",
	} {
		if !calls[want] {
			t.Errorf("missing edge %q through a shadowing class; have %v", want, calls)
		}
	}
}
