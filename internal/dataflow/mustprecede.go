package dataflow

import (
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/jimple"
)

// GenFunc decides whether executing stmt of m establishes the tracked
// condition (e.g. "a connectivity check has run").
type GenFunc func(m *jimple.Method, stmt int, inv jimple.InvokeExpr) bool

// MustPrecede is an interprocedural, context-insensitive must-analysis:
// it computes, for every statement of every method reachable from the
// app's entry points, whether the tracked condition has definitely been
// established on all paths from every entry point to that statement.
//
// NChecker's Checker 1 instantiates it with "invokes a connectivity-check
// API" to decide whether each network request is guarded (paper §4.4.1:
// "For each path from the entry point to the target API, NChecker checks
// if there is connectivity checking API invoked on the path"). Like the
// paper's implementation it is path-insensitive: the check only needs to
// be invoked, not to govern the branch — which reproduces the false
// negatives §5.3 reports.
type MustPrecede struct {
	cg    *callgraph.Graph
	gen   GenFunc
	cfgOf CFGProvider
	fact  map[string][]bool // method key -> per-statement "definitely established before stmt"
}

// CFGProvider supplies the control-flow graph of a method. Passing a
// memoizing provider lets the analysis share CFGs with other passes of
// the same scan instead of rebuilding them.
type CFGProvider func(*jimple.Method) *cfg.Graph

// NewMustPrecede runs the analysis over all entry points of cg, building
// a fresh CFG per reachable method.
func NewMustPrecede(cg *callgraph.Graph, gen GenFunc) *MustPrecede {
	return NewMustPrecedeWith(cg, gen, nil)
}

// NewMustPrecedeWith is NewMustPrecede with an explicit CFG provider
// (nil falls back to cfg.New). The provider must be safe for use from
// this goroutine; results are identical to NewMustPrecede.
func NewMustPrecedeWith(cg *callgraph.Graph, gen GenFunc, cfgOf CFGProvider) *MustPrecede {
	if cfgOf == nil {
		cfgOf = cfg.New
	}
	mp := &MustPrecede{cg: cg, gen: gen, cfgOf: cfgOf, fact: make(map[string][]bool)}
	mp.solve()
	return mp
}

// FactBefore reports whether the condition definitely holds immediately
// before stmt of the method with the given signature key executes. It
// returns false for methods outside the reachable set.
func (mp *MustPrecede) FactBefore(methodKey string, stmt int) bool {
	f := mp.fact[methodKey]
	if f == nil || stmt < 0 || stmt >= len(f) {
		return false
	}
	return f[stmt]
}

type mpMethodState struct {
	m       *jimple.Method
	g       *cfg.Graph
	in      []bool // per node
	out     []bool
	gen     []bool // per node, GenFunc result (pure, so computed once)
	summary bool   // every entry→exit path establishes the condition
	entry   bool   // condition definitely holds at method entry

	// Pre-resolved interprocedural links, computed once after the state
	// set is fixed so the fixpoint iterations never touch the call graph
	// or re-render signature keys.
	siteCallees    map[int][]*mpMethodState // EdgeCall targets per call site
	siteUnresolved map[int]bool             // site has an EdgeCall target outside the state set
	inCalls        []mpInEdge               // reachable call sites dispatching into this method
}

// mpInEdge is one pre-resolved incoming call: the caller's state, the
// site index, and whether the trigger statement itself establishes the
// condition before dispatch (precomputable: GenFunc is pure).
type mpInEdge struct {
	caller *mpMethodState
	site   int
	estab  bool
}

func (mp *MustPrecede) solve() {
	// Reachable methods from all entries.
	reach := make(map[string]bool)
	for _, e := range mp.cg.Entries() {
		for k := range mp.cg.ReachableFrom(e.Method.Sig) {
			reach[k] = true
		}
	}
	entryKeys := make(map[string]bool)
	for _, e := range mp.cg.Entries() {
		entryKeys[e.Method.Sig.Key()] = true
	}
	states := make(map[string]*mpMethodState)
	for k := range reach {
		m := mp.cg.Method(k)
		if m == nil {
			continue
		}
		g := mp.cfgOf(m)
		st := &mpMethodState{
			m:       m,
			g:       g,
			in:      make([]bool, g.NumNodes()),
			out:     make([]bool, g.NumNodes()),
			gen:     make([]bool, g.NumNodes()),
			summary: true, // optimistic; lowered by iteration
			entry:   !entryKeys[k],
		}
		// GenFunc is pure, so its per-statement verdicts are fixed before
		// the fixpoint starts; evaluating it here keeps the (checker-
		// supplied, often key-rendering) closure out of the inner loop.
		for u := 0; u < len(m.Body); u++ {
			if inv, ok := jimple.InvokeOf(m.Body[u]); ok {
				st.gen[u] = mp.gen(m, u, inv)
			}
		}
		// Must-analysis requires optimistic initialization (start at TOP
		// and lower): pessimistic false would be sticky around loop back
		// edges and never recover.
		for i := range st.in {
			st.in[i] = true
			st.out[i] = true
		}
		states[k] = st
	}
	// Resolve the interprocedural links once: per call site the callee
	// states (genAt), per method the incoming calls with their
	// establishes-before-dispatch bit (entryFact). The fixpoint below then
	// runs on direct pointers.
	for k, st := range states {
		for _, e := range mp.cg.OutEdges(k) {
			if e.Kind != callgraph.EdgeCall {
				continue
			}
			if callee := states[e.Callee.Key()]; callee != nil {
				if st.siteCallees == nil {
					st.siteCallees = make(map[int][]*mpMethodState)
				}
				st.siteCallees[e.Site] = append(st.siteCallees[e.Site], callee)
			} else {
				if st.siteUnresolved == nil {
					st.siteUnresolved = make(map[int]bool)
				}
				st.siteUnresolved[e.Site] = true
			}
		}
		for _, e := range mp.cg.InEdges(k) {
			caller := states[e.Caller.Key()]
			if caller == nil {
				continue
			}
			st.inCalls = append(st.inCalls, mpInEdge{
				caller: caller,
				site:   e.Site,
				estab:  mp.siteEstablishesBeforeDispatch(caller, e),
			})
		}
	}
	// Global fixpoint: facts only move true→false, so this terminates.
	for changed := true; changed; {
		changed = false
		for _, st := range states {
			if mp.solveMethod(st) {
				changed = true
			}
		}
		// Recompute entry facts from call-site facts.
		for k, st := range states {
			if entryKeys[k] {
				continue
			}
			newEntry := entryFact(st)
			if newEntry != st.entry {
				st.entry = newEntry
				changed = true
			}
		}
	}
	for k, st := range states {
		mp.fact[k] = st.in[:len(st.m.Body)]
	}
}

// entryFact is the meet (AND) over the facts holding before every call
// site that can invoke the method. A method never called from the
// reachable region keeps fact true vacuously — it only matters if later
// iterations discover a call.
func entryFact(st *mpMethodState) bool {
	for _, c := range st.inCalls {
		if !c.caller.in[c.site] && !c.estab {
			return false
		}
	}
	return true
}

// siteEstablishesBeforeDispatch reports whether the trigger statement
// itself establishes the condition before control reaches the callee
// (it does when the trigger invocation is itself a gen, e.g. a request
// wrapped in a checking helper — conservative: only the direct GenFunc).
func (mp *MustPrecede) siteEstablishesBeforeDispatch(caller *mpMethodState, e callgraph.Edge) bool {
	return e.Site >= 0 && e.Site < len(caller.gen) && caller.gen[e.Site]
}

// solveMethod runs the intraprocedural forward must-analysis for one
// method given the current callee summaries; reports whether anything
// changed.
func (mp *MustPrecede) solveMethod(st *mpMethodState) bool {
	g := st.g
	n := g.NumNodes()
	changed := false
	// Iterate locally to a fixpoint (bodies are small).
	for localChange := true; localChange; {
		localChange = false
		for u := 0; u < n; u++ {
			// in = meet (AND) over predecessor outs; the entry node also
			// meets the interprocedural entry fact. Unreachable nodes are
			// vacuously true, which cannot lower any reachable fact.
			in := true
			if u == 0 {
				in = st.entry
			}
			for _, p := range g.Preds(u) {
				in = in && st.out[p]
			}
			out := in || mp.genAt(st, u)
			if in != st.in[u] {
				st.in[u] = in
				localChange, changed = true, true
			}
			if out != st.out[u] {
				st.out[u] = out
				localChange, changed = true, true
			}
		}
	}
	newSummary := st.out[g.Exit()]
	if newSummary != st.summary {
		st.summary = newSummary
		changed = true
	}
	return changed
}

// genAt decides whether node u establishes the condition: either its
// statement matches GenFunc directly, or it is a call site whose every
// (synchronously) dispatched target has a true summary.
func (mp *MustPrecede) genAt(st *mpMethodState, u int) bool {
	if u >= len(st.m.Body) {
		return false
	}
	if st.gen[u] {
		return true
	}
	// Call into app methods: condition established if every possible
	// synchronous callee establishes it on all its paths.
	callees := st.siteCallees[u]
	if len(callees) == 0 || st.siteUnresolved[u] {
		return false
	}
	for _, callee := range callees {
		if !callee.summary {
			return false
		}
	}
	return true
}
