package dataflow

import (
	"sort"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/jimple"
)

// This file implements the summary-based interprocedural taint engine:
// per-method transfer relations over the method's inputs (receiver +
// parameters), computed bottom-up over the call graph's SCC condensation
// with a fixpoint for recursive cycles. Checkers consult a callee's
// summary at the call site instead of stopping at the method boundary —
// the "backward to the allocation, forward over the aliases" tracking of
// paper §4.4.1 and the helper-method response flows of §4.4.4, done once
// per method instead of once per call site (the BackDroid-style targeted
// analysis ROADMAP's scale goal asks for).

// maxSummaryInputs bounds the tracked inputs per method. Input token 0 is
// the receiver, token 1+i is parameter i; tokens at or beyond the bound
// are ignored (a 64-bit mask per fact keeps the transfer relations flat).
const maxSummaryInputs = 64

// summaryFixpointBound caps the iteration count within one recursive SCC.
// All summary facts grow monotonically, so iteration always converges;
// the bound is a safety net against pathological cycles, and hitting it
// only under-reports facts (deterministically).
const summaryFixpointBound = 16

func bit(tok int) uint64 {
	if tok < 0 || tok >= maxSummaryInputs {
		return 0
	}
	return uint64(1) << uint(tok)
}

// SummaryArg is one pre-evaluated call argument carried in a SummaryCall:
// constants are folded in the defining method's own context, because a
// caller cannot run constant propagation inside another method's body.
type SummaryArg struct {
	Known bool
	V     int64
}

// SummaryCall records one call discovered through a summary.
type SummaryCall struct {
	Callee jimple.Sig
	Args   []SummaryArg
}

// TaintSummary is one method's transfer relation over its input tokens
// (0 = receiver, 1+i = parameter i). Masks are input-token bitsets.
type TaintSummary struct {
	// Inputs is the tracked token count (1 + len(params), capped).
	Inputs int

	// RetFrom is the mask of inputs the return value may alias or derive
	// from.
	RetFrom uint64
	// StateFrom[k] is the mask of inputs whose values may be stored into
	// input k's object state (field stores, transitively through callees).
	StateFrom []uint64
	// Escapes is the mask of inputs whose value may escape into a static
	// field or the field of an untracked object.
	Escapes uint64
	// Uses is the mask of inputs that are consulted: a method invoked on
	// them, an instanceof test, or being passed into unsummarized code —
	// here or in any summarized callee.
	Uses uint64
	// ValidatedAllPaths is the mask of inputs validity-checked (a
	// SummaryConfig.IsValidityCheck call or a null test on an alias) on
	// every entry→exit path.
	ValidatedAllPaths uint64
	// UncheckedUse is the mask of inputs whose payload is read (a
	// non-check call on an alias) on some path with no prior validity
	// check.
	UncheckedUse uint64

	// CallsOn[k] lists the calls — here or in summarized callees — whose
	// receiver may alias input k, deduplicated and sorted.
	CallsOn [][]SummaryCall
	// CallsOnRet lists the calls on objects the method allocates and
	// returns (the factory-helper pattern: the caller only ever sees the
	// returned alias).
	CallsOnRet []SummaryCall
}

// UsesToken reports whether input token tok is consulted (see Uses).
func (s *TaintSummary) UsesToken(tok int) bool { return s.Uses&bit(tok) != 0 }

// SummaryConfig parameterizes summary computation.
type SummaryConfig struct {
	// IsValidityCheck classifies a call as a response-validity check for
	// the UncheckedUse/ValidatedAllPaths facts. nil means only null tests
	// count as checks.
	IsValidityCheck func(jimple.Sig) bool
	// CFG, ReachDefs and ConstProp supply per-method artifacts so callers
	// can share a scan-wide cache; nil fields build fresh artifacts.
	CFG       CFGProvider
	ReachDefs func(*jimple.Method) *ReachDefs
	ConstProp func(*jimple.Method) *ConstProp
	// Cancel is polled between method computations; a non-nil return
	// aborts the remaining work and ComputeSummaries returns the error
	// (deadline cooperation for fault-tolerant scans).
	Cancel func() error
	// Roots, when non-nil, restricts the computation to the sub-condensation
	// demanded by the given method keys: only SCCs inside the forward
	// synchronous-call closure of Roots (intersected with the method set)
	// are condensed and summarized. Checkers only ever consult summaries
	// from a root method's call sites, and a callee's converged summary
	// depends only on its own forward closure, so every consulted value is
	// identical to the whole-set computation's. nil means all methods
	// (a non-nil empty slice computes nothing).
	Roots []string
}

func (c *SummaryConfig) cfg(m *jimple.Method) *cfg.Graph {
	if c.CFG != nil {
		return c.CFG(m)
	}
	return cfg.New(m)
}

func (c *SummaryConfig) reachDefs(m *jimple.Method, g *cfg.Graph) *ReachDefs {
	if c.ReachDefs != nil {
		return c.ReachDefs(m)
	}
	return NewReachDefs(g)
}

func (c *SummaryConfig) constProp(m *jimple.Method, rd *ReachDefs) *ConstProp {
	if c.ConstProp != nil {
		return c.ConstProp(m)
	}
	return NewConstProp(rd)
}

// SummaryStats describes one summary computation for diagnostics.
type SummaryStats struct {
	Methods            int // methods summarized
	SCCs               int // strongly connected components processed
	MaxSCC             int // size of the largest (recursive) SCC
	FixpointIterations int // extra passes spent converging recursive SCCs
}

// SummarySet holds the computed summaries of one scan. Lookups are safe
// for concurrent use once ComputeSummaries returns.
type SummarySet struct {
	sums  map[string]*TaintSummary
	stats SummaryStats
}

// Of returns the summary of the method with the given signature key, or
// nil when the method was not in the summarized set.
func (s *SummarySet) Of(key string) *TaintSummary {
	if s == nil {
		return nil
	}
	return s.sums[key]
}

// Stats returns the computation statistics.
func (s *SummarySet) Stats() SummaryStats { return s.stats }

// SummaryResolver maps a call site (statement index in the analyzed
// method) to the summaries of its possible callees. Checkers build one
// per method from the call graph and a SummarySet.
type SummaryResolver func(site int) []*TaintSummary

// ComputeSummaries builds taint summaries for methods, bottom-up over the
// SCC condensation of their mutual (synchronous) call edges in cg, with a
// bounded fixpoint inside each recursive SCC. The result is deterministic:
// methods are processed in sorted-key order and every summary list is
// deduplicated and sorted. On cancellation the partial set built so far is
// returned along with the error.
func ComputeSummaries(cg *callgraph.Graph, methods []*jimple.Method, conf SummaryConfig) (*SummarySet, error) {
	b := &summaryBuilder{
		cg:    cg,
		conf:  conf,
		inSet: make(map[string]*jimple.Method, len(methods)),
		set:   &SummarySet{sums: make(map[string]*TaintSummary, len(methods))},
	}
	keys := make([]string, 0, len(methods))
	for _, m := range methods {
		k := m.Sig.Key()
		if _, dup := b.inSet[k]; !dup {
			b.inSet[k] = m
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if conf.Roots != nil {
		keys = b.demandedClosure(keys, conf.Roots)
	}
	sccs := b.condense(keys)
	b.set.stats.SCCs = len(sccs)
	for _, scc := range sccs {
		if len(scc) > b.set.stats.MaxSCC {
			b.set.stats.MaxSCC = len(scc)
		}
		if err := b.computeSCC(scc); err != nil {
			return b.set, err
		}
	}
	b.set.stats.Methods = len(b.set.sums)
	return b.set, nil
}

type summaryBuilder struct {
	cg    *callgraph.Graph
	conf  SummaryConfig
	inSet map[string]*jimple.Method
	set   *SummarySet
}

// demandedClosure filters the sorted key list down to the forward EdgeCall
// closure of the roots within the in-set, preserving the sorted order.
func (b *summaryBuilder) demandedClosure(keys, roots []string) []string {
	want := make(map[string]bool, len(roots))
	var stack []string
	for _, r := range roots {
		if _, ok := b.inSet[r]; ok && !want[r] {
			want[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.cg.OutEdges(k) {
			ck := e.Callee.Key()
			if e.Kind != callgraph.EdgeCall || want[ck] {
				continue
			}
			if _, ok := b.inSet[ck]; !ok {
				continue
			}
			want[ck] = true
			stack = append(stack, ck)
		}
	}
	out := keys[:0]
	for _, k := range keys {
		if want[k] {
			out = append(out, k)
		}
	}
	return out
}

// condense runs Tarjan's algorithm over the in-set call edges and returns
// the SCCs in reverse topological order (callees before callers), each
// SCC's members sorted by key. Iteration order over keys and edges is
// deterministic, so the condensation is too.
func (b *summaryBuilder) condense(keys []string) [][]string {
	adj := make(map[string][]string, len(keys))
	for _, k := range keys {
		var succs []string
		seen := make(map[string]bool)
		for _, e := range b.cg.OutEdges(k) {
			ck := e.Callee.Key()
			if e.Kind != callgraph.EdgeCall || seen[ck] {
				continue
			}
			if _, ok := b.inSet[ck]; !ok {
				continue
			}
			seen[ck] = true
			succs = append(succs, ck)
		}
		adj[k] = succs
	}
	index := make(map[string]int, len(keys))
	low := make(map[string]int, len(keys))
	onStack := make(map[string]bool, len(keys))
	var stack []string
	var sccs [][]string
	next := 0
	type frame struct {
		key string
		ei  int
	}
	for _, root := range keys {
		if _, visited := index[root]; visited {
			continue
		}
		call := []frame{{key: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < len(adj[f.key]) {
				w := adj[f.key][f.ei]
				f.ei++
				if _, visited := index[w]; !visited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{key: w})
				} else if onStack[w] && index[w] < low[f.key] {
					low[f.key] = index[w]
				}
				continue
			}
			// f.key finished: pop, propagate lowlink, emit SCC at root.
			k := f.key
			call = call[:len(call)-1]
			if len(call) > 0 && low[k] < low[call[len(call)-1].key] {
				low[call[len(call)-1].key] = low[k]
			}
			if low[k] == index[k] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == k {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// computeSCC summarizes one SCC's methods. A non-recursive singleton needs
// one pass; a recursive component iterates to a fixpoint (facts only grow,
// so comparing summaries detects convergence).
func (b *summaryBuilder) computeSCC(scc []string) error {
	recursive := len(scc) > 1
	if !recursive {
		for _, e := range b.cg.OutEdges(scc[0]) {
			if e.Kind == callgraph.EdgeCall && e.Callee.Key() == scc[0] {
				recursive = true
				break
			}
		}
	}
	for iter := 0; ; iter++ {
		changed := false
		for _, k := range scc {
			if b.conf.Cancel != nil {
				if err := b.conf.Cancel(); err != nil {
					return err
				}
			}
			sum := b.computeMethod(b.inSet[k])
			if prev := b.set.sums[k]; prev == nil || !equalSummary(prev, sum) {
				changed = true
			}
			b.set.sums[k] = sum
		}
		if !recursive || !changed || iter+1 >= summaryFixpointBound {
			return nil
		}
		b.set.stats.FixpointIterations++
	}
}

// calleeAt resolves the summarized callees of each call site of the
// method with key k, in deterministic (sorted) edge order. A callee in
// the summarized set whose summary is not yet computed (same SCC, first
// iteration) contributes a nil entry: callers treat it as an empty
// summary, which the fixpoint then grows.
func (b *summaryBuilder) calleeAt(k string) map[int][]*TaintSummary {
	out := make(map[int][]*TaintSummary)
	for _, e := range b.cg.OutEdges(k) {
		if e.Kind != callgraph.EdgeCall {
			continue
		}
		ck := e.Callee.Key()
		if _, ok := b.inSet[ck]; !ok {
			continue
		}
		out[e.Site] = append(out[e.Site], b.set.sums[ck])
	}
	return out
}

// boundTokens returns the callee tokens of sum that are bound, at the
// invocation inv, to a local satisfying isAlias (token 0 → receiver,
// token 1+j → argument j), in ascending order.
func BoundTokens(inv jimple.InvokeExpr, sum *TaintSummary, isAlias func(string) bool) []int {
	var toks []int
	if sum == nil {
		return nil
	}
	if inv.Base != "" && sum.Inputs > 0 && isAlias(inv.Base) {
		toks = append(toks, 0)
	}
	for j, arg := range inv.Args {
		if 1+j >= sum.Inputs {
			break
		}
		if l, ok := arg.(jimple.Local); ok && isAlias(l.Name) {
			toks = append(toks, 1+j)
		}
	}
	return toks
}

// tokenLocal returns the caller local bound to callee token tok at inv,
// or "" when the token has no local binding (non-local argument).
func tokenLocal(inv jimple.InvokeExpr, tok int) string {
	if tok == 0 {
		return inv.Base
	}
	if tok-1 < len(inv.Args) {
		if l, ok := inv.Args[tok-1].(jimple.Local); ok {
			return l.Name
		}
	}
	return ""
}

// computeMethod builds one method's summary against the callee summaries
// currently in the set.
func (b *summaryBuilder) computeMethod(m *jimple.Method) *TaintSummary {
	g := b.conf.cfg(m)
	callees := b.calleeAt(m.Sig.Key())
	inputs := 1 + len(m.Sig.Params)
	if inputs > maxSummaryInputs {
		inputs = maxSummaryInputs
	}
	sum := &TaintSummary{
		Inputs:    inputs,
		StateFrom: make([]uint64, inputs),
		CallsOn:   make([][]SummaryCall, inputs),
	}
	in := b.aliasFixpoint(m, g, callees)
	b.collectFacts(m, g, callees, in, sum)
	b.checkFacts(m, g, callees, in, sum)
	for k := range sum.CallsOn {
		sum.CallsOn[k] = dedupeCalls(sum.CallsOn[k])
	}
	sum.CallsOnRet = dedupeCalls(sum.CallsOnRet)
	return sum
}

// aliasFixpoint computes, per node, the map local → input mask holding
// immediately before the node executes: which inputs each local may alias
// or derive from. The transfer mirrors ForwardTaint's object-taint rules
// (receiver derivation, field-store insensitivity, strong updates on
// overwrite) lifted to per-input masks, and additionally flows through
// summarized callees (return derivation and state effects).
func (b *summaryBuilder) aliasFixpoint(m *jimple.Method, g *cfg.Graph, callees map[int][]*TaintSummary) []map[string]uint64 {
	n := g.NumNodes()
	// Maps stay nil until a fact arrives: reads from nil maps are free, so
	// nodes no masks flow through never allocate (most nodes of most
	// methods). Consumers index in[i][name] and tolerate nil the same way.
	in := make([]map[string]uint64, n)
	out := make([]map[string]uint64, n)
	work := make([]int, 0, n)
	inWork := make([]bool, n)
	push := func(i int) {
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}
	for i := 0; i < n; i++ {
		push(i)
	}
	for head := 0; head < len(work); head++ {
		u := work[head]
		inWork[u] = false
		var nu map[string]uint64
		for _, p := range g.Preds(u) {
			for l, mask := range out[p] {
				if nu == nil {
					nu = make(map[string]uint64, 8)
				}
				nu[l] |= mask
			}
		}
		in[u] = nu
		var no map[string]uint64
		if len(nu) > 0 {
			no = make(map[string]uint64, len(nu))
			for l, mask := range nu {
				no[l] = mask
			}
		}
		if u < len(m.Body) {
			no = b.aliasTransfer(m.Body[u], u, no, callees)
		}
		if !sameMasks(out[u], no) {
			out[u] = no
			for _, s := range g.Succs(u) {
				push(s)
			}
		}
	}
	return in
}

// aliasTransfer applies one statement's transfer to cur and returns it,
// allocating the map only when the first fact is introduced (cur may come
// in nil and leave nil). Every other write is guarded by a non-zero mask,
// which can only derive from an already-populated map.
func (b *summaryBuilder) aliasTransfer(s jimple.Stmt, at int, cur map[string]uint64, callees map[int][]*TaintSummary) map[string]uint64 {
	if inv, ok := jimple.InvokeOf(s); ok {
		applyStateEffects(inv, callees[at], cur)
	}
	a, ok := s.(*jimple.AssignStmt)
	if !ok {
		return cur
	}
	if f, isField := a.LHS.(jimple.FieldRef); isField {
		if f.Base != "" {
			// Object-level field insensitivity: storing a derived value
			// into x makes x's object state derive the same inputs.
			if vm := maskOfValue(a.RHS, at, cur, callees); vm != 0 {
				cur[f.Base] |= vm
			}
		}
		return cur
	}
	dst := a.LHS.(jimple.Local).Name
	var mask uint64
	switch rhs := a.RHS.(type) {
	case jimple.ThisRef:
		mask = bit(0)
	case jimple.ParamRef:
		mask = bit(1 + rhs.Index)
	default:
		mask = maskOfValue(a.RHS, at, cur, callees)
	}
	if mask != 0 {
		if cur == nil {
			cur = make(map[string]uint64, 4)
		}
		cur[dst] = mask
	} else {
		delete(cur, dst) // strong update: overwritten with a fresh value
	}
	return cur
}

// applyStateEffects propagates callee StateFrom relations to the caller's
// bound locals: if the callee stores input t_in into input t_out's state,
// the caller local bound to t_out now derives everything the local bound
// to t_in derives.
func applyStateEffects(inv jimple.InvokeExpr, sums []*TaintSummary, cur map[string]uint64) {
	for _, sum := range sums {
		if sum == nil {
			continue
		}
		for tOut := 0; tOut < sum.Inputs; tOut++ {
			effects := sum.StateFrom[tOut]
			if effects == 0 {
				continue
			}
			outLocal := tokenLocal(inv, tOut)
			if outLocal == "" {
				continue
			}
			var inMask uint64
			for tIn := 0; tIn < sum.Inputs; tIn++ {
				if effects&bit(tIn) != 0 {
					if l := tokenLocal(inv, tIn); l != "" {
						inMask |= cur[l]
					}
				}
			}
			if inMask != 0 {
				cur[outLocal] |= inMask
			}
		}
	}
}

func maskOfValue(v jimple.Value, at int, cur map[string]uint64, callees map[int][]*TaintSummary) uint64 {
	switch v := v.(type) {
	case jimple.Local:
		return cur[v.Name]
	case jimple.CastExpr:
		return maskOfValue(v.V, at, cur, callees)
	case jimple.FieldRef:
		// A load from a derived object yields a derived value (field
		// insensitivity); static loads are fresh.
		if v.Base != "" {
			return cur[v.Base]
		}
		return 0
	case jimple.InvokeExpr:
		if sums := callees[at]; len(sums) > 0 {
			// Summarized callees: the result derives exactly what the
			// callee's RetFrom maps the bindings to.
			var mask uint64
			for _, sum := range sums {
				if sum == nil {
					continue
				}
				for t := 0; t < sum.Inputs; t++ {
					if sum.RetFrom&bit(t) != 0 {
						if l := tokenLocal(v, t); l != "" {
							mask |= cur[l]
						}
					}
				}
			}
			return mask
		}
		// Unsummarized (framework) callee: receiver derivation, matching
		// DefaultTaintOptions.TaintThroughReceiver.
		if v.Base != "" {
			return cur[v.Base]
		}
		return 0
	default:
		return 0
	}
}

func sameMasks(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// collectFacts walks the body once with the converged in-states and
// records the summary's may-facts: calls on inputs, uses, escapes, state
// transfer, return derivation, and the factory CallsOnRet list.
func (b *summaryBuilder) collectFacts(m *jimple.Method, g *cfg.Graph, callees map[int][]*TaintSummary, in []map[string]uint64, sum *TaintSummary) {
	var rd *ReachDefs
	var cp *ConstProp
	lazyCP := func() *ConstProp {
		if cp == nil {
			rd = b.conf.reachDefs(m, g)
			cp = b.conf.constProp(m, rd)
		}
		return cp
	}
	addCallsOn := func(mask uint64, sc SummaryCall) {
		for k := 0; k < sum.Inputs; k++ {
			if mask&bit(k) != 0 {
				sum.CallsOn[k] = append(sum.CallsOn[k], sc)
			}
		}
	}
	var freshReturns []int
	for i, s := range m.Body {
		cur := in[i]
		if a, isAsg := s.(*jimple.AssignStmt); isAsg {
			if f, isField := a.LHS.(jimple.FieldRef); isField {
				vm := maskOfValue(a.RHS, i, cur, callees)
				if vm != 0 {
					if f.Base == "" || cur[f.Base] == 0 {
						sum.Escapes |= vm
					} else {
						for k := 0; k < sum.Inputs; k++ {
							if cur[f.Base]&bit(k) != 0 {
								sum.StateFrom[k] |= vm
							}
						}
					}
				}
			}
			if io, isIO := a.RHS.(jimple.InstanceOfExpr); isIO {
				if l, isLocal := io.V.(jimple.Local); isLocal {
					sum.Uses |= cur[l.Name]
				}
			}
		}
		if r, isRet := s.(*jimple.ReturnStmt); isRet && r.V != nil {
			vm := maskOfValue(r.V, i, cur, callees)
			sum.RetFrom |= vm
			if vm == 0 {
				if _, isLocal := r.V.(jimple.Local); isLocal {
					freshReturns = append(freshReturns, i)
				}
			}
		}
		inv, isInv := jimple.InvokeOf(s)
		if !isInv {
			continue
		}
		sums := callees[i]
		if inv.Base != "" && cur[inv.Base] != 0 {
			// A call on an alias of an input: record it (with constant
			// arguments folded here, where they are evaluable) and mark
			// the inputs used.
			sum.Uses |= cur[inv.Base]
			addCallsOn(cur[inv.Base], SummaryCall{Callee: inv.Callee, Args: evalArgs(lazyCP(), i, inv)})
		}
		if len(sums) == 0 {
			// Passing an input into unsummarized code counts as a use
			// (unknown code may consult it).
			for _, arg := range inv.Args {
				if l, ok := arg.(jimple.Local); ok {
					sum.Uses |= cur[l.Name]
				}
			}
			continue
		}
		// Map the summarized callees' facts through the binding.
		for _, cs := range sums {
			if cs == nil {
				continue
			}
			for t := 0; t < cs.Inputs; t++ {
				l := tokenLocal(inv, t)
				if l == "" || cur[l] == 0 {
					continue
				}
				mask := cur[l]
				if cs.UsesToken(t) {
					sum.Uses |= mask
				}
				if cs.Escapes&bit(t) != 0 {
					sum.Escapes |= mask
				}
				for _, sc := range cs.CallsOn[t] {
					addCallsOn(mask, sc)
				}
				// Transitive state transfer: callee stores t into t_out.
				for tOut := 0; tOut < cs.Inputs; tOut++ {
					if cs.StateFrom[tOut]&bit(t) == 0 {
						continue
					}
					if lOut := tokenLocal(inv, tOut); lOut != "" {
						for k := 0; k < sum.Inputs; k++ {
							if cur[lOut]&bit(k) != 0 {
								sum.StateFrom[k] |= mask
							}
						}
					}
				}
			}
		}
	}
	// Factory pattern: calls on objects the method allocates and returns.
	for _, ret := range freshReturns {
		l := m.Body[ret].(*jimple.ReturnStmt).V.(jimple.Local)
		lazyCP()
		for _, oc := range CallsOnObject(g, rd, ret, l.Name) {
			sum.CallsOnRet = append(sum.CallsOnRet, SummaryCall{Callee: oc.Callee, Args: evalArgs(cp, oc.Stmt, mustInvoke(m, oc.Stmt))})
		}
		// Chained factories: the returned object may itself come from a
		// summarized factory (its CallsOnRet) or be a callee's
		// passed-through input (its CallsOn via RetFrom).
		for _, alloc := range AllocSitesOf(rd, ret, l.Name) {
			for _, cs := range callees[alloc] {
				if cs == nil {
					continue
				}
				sum.CallsOnRet = append(sum.CallsOnRet, cs.CallsOnRet...)
				if inv, ok := jimple.InvokeOf(m.Body[alloc]); ok {
					for t := 0; t < cs.Inputs; t++ {
						if cs.RetFrom&bit(t) != 0 && tokenLocal(inv, t) != "" {
							sum.CallsOnRet = append(sum.CallsOnRet, cs.CallsOn[t]...)
						}
					}
				}
			}
		}
	}
}

func mustInvoke(m *jimple.Method, stmt int) jimple.InvokeExpr {
	inv, _ := jimple.InvokeOf(m.Body[stmt])
	return inv
}

// checkFacts computes the must-check facts per input: ValidatedAllPaths
// (every entry→exit path validates the input) and UncheckedUse (some path
// reads the payload before any validation) — the summary form of checker
// 4's response-validity analysis.
func (b *summaryBuilder) checkFacts(m *jimple.Method, g *cfg.Graph, callees map[int][]*TaintSummary, in []map[string]uint64, sum *TaintSummary) {
	var present uint64
	for i := range in {
		for _, mask := range in[i] {
			present |= mask
		}
	}
	for k := 0; k < sum.Inputs; k++ {
		if present&bit(k) == 0 {
			continue
		}
		isAlias := func(stmt int, name string) bool {
			return stmt < len(in) && in[stmt][name]&bit(k) != 0
		}
		checked := mustCheckedIn(g, m, isAlias, callees, b.conf.IsValidityCheck)
		if checked[g.Exit()] {
			sum.ValidatedAllPaths |= bit(k)
		}
		for i := range m.Body {
			if payloadReadAt(m, i, isAlias, callees, b.conf.IsValidityCheck) && !checked[i] {
				sum.UncheckedUse |= bit(k)
				break
			}
		}
	}
}

// mustCheckedIn is a forward must-analysis: fact[i] is true when every
// path reaching node i has validated the tracked alias — via a validity
// check call, a null test, or a summarized callee that validates the
// bound token on all its paths. Optimistic initialization (start at TOP),
// entry starts unchecked.
func mustCheckedIn(g *cfg.Graph, m *jimple.Method, isAlias func(int, string) bool, callees map[int][]*TaintSummary, isCheck func(jimple.Sig) bool) []bool {
	n := g.NumNodes()
	in := make([]bool, n)
	out := make([]bool, n)
	for i := range in {
		in[i] = true
		out[i] = true
	}
	gen := func(i int) bool {
		if i >= len(m.Body) {
			return false
		}
		s := m.Body[i]
		if iff, ok := s.(*jimple.IfStmt); ok {
			return isNullTestOnValue(iff.Cond, i, isAlias)
		}
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			return false
		}
		if isCheck != nil && inv.Base != "" && isAlias(i, inv.Base) && isCheck(inv.Callee) {
			return true
		}
		// A call whose every summarized callee validates a bound alias
		// token on all its paths establishes the check here too.
		sums := callees[i]
		if len(sums) == 0 {
			return false
		}
		for _, cs := range sums {
			validated := false
			for _, t := range BoundTokens(inv, cs, func(name string) bool { return isAlias(i, name) }) {
				if cs.ValidatedAllPaths&bit(t) != 0 {
					validated = true
					break
				}
			}
			if !validated {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			newIn := u != 0
			for _, p := range g.Preds(u) {
				newIn = newIn && out[p]
			}
			if u == 0 {
				newIn = false
			}
			newOut := newIn || gen(u)
			if newIn != in[u] || newOut != out[u] {
				in[u], out[u] = newIn, newOut
				changed = true
			}
		}
	}
	return in
}

// payloadReadAt reports whether statement i reads the tracked alias's
// payload: a non-check call on it, or passing it to a summarized callee
// that itself has an unchecked use of the bound token.
func payloadReadAt(m *jimple.Method, i int, isAlias func(int, string) bool, callees map[int][]*TaintSummary, isCheck func(jimple.Sig) bool) bool {
	inv, ok := jimple.InvokeOf(m.Body[i])
	if !ok {
		return false
	}
	sums := callees[i]
	if inv.Base != "" && isAlias(i, inv.Base) {
		if isCheck != nil && isCheck(inv.Callee) {
			return false
		}
		if len(sums) == 0 {
			return true // framework call on the alias reads the payload
		}
	}
	for _, cs := range sums {
		if cs == nil {
			continue
		}
		for _, t := range BoundTokens(inv, cs, func(name string) bool { return isAlias(i, name) }) {
			if cs.UncheckedUse&bit(t) != 0 {
				return true
			}
		}
	}
	return false
}

// isNullTestOnValue matches `x == null` / `x != null` conditions on an
// alias (shared shape with checker 4's null-test detection).
func isNullTestOnValue(cond jimple.Value, stmt int, isAlias func(int, string) bool) bool {
	be, ok := cond.(jimple.BinExpr)
	if !ok || (be.Op != jimple.OpEQ && be.Op != jimple.OpNE) {
		return false
	}
	lLocal, lIsLocal := be.L.(jimple.Local)
	rLocal, rIsLocal := be.R.(jimple.Local)
	_, lIsNull := be.L.(jimple.NullConst)
	_, rIsNull := be.R.(jimple.NullConst)
	if lIsLocal && rIsNull {
		return isAlias(stmt, lLocal.Name)
	}
	if rIsLocal && lIsNull {
		return isAlias(stmt, rLocal.Name)
	}
	return false
}

// evalArgs folds the invocation's arguments to constants in the defining
// method's context.
func evalArgs(cp *ConstProp, stmt int, inv jimple.InvokeExpr) []SummaryArg {
	if len(inv.Args) == 0 {
		return nil
	}
	out := make([]SummaryArg, len(inv.Args))
	for j := range inv.Args {
		v, ok := cp.ArgInt(stmt, inv, j)
		out[j] = SummaryArg{Known: ok, V: v}
	}
	return out
}

// dedupeCalls sorts and deduplicates a summary call list (callee key,
// then argument values) for deterministic summaries. Callee keys are
// rendered once up front, not once per comparison.
func dedupeCalls(calls []SummaryCall) []SummaryCall {
	if len(calls) == 0 {
		return nil
	}
	keys := make([]string, len(calls))
	for i := range calls {
		keys[i] = calls[i].Callee.Key()
	}
	sort.Stable(&callSorter{calls: calls, keys: keys})
	out := calls[:1]
	last := 0
	for i := 1; i < len(calls); i++ {
		if keys[last] != keys[i] || !sameArgs(out[len(out)-1].Args, calls[i].Args) {
			out = append(out, calls[i])
			last = i
		}
	}
	return out
}

// callSorter orders SummaryCalls by pre-rendered callee key, then
// argument vector, swapping the key slice in lockstep.
type callSorter struct {
	calls []SummaryCall
	keys  []string
}

func (s *callSorter) Len() int { return len(s.calls) }

func (s *callSorter) Swap(i, j int) {
	s.calls[i], s.calls[j] = s.calls[j], s.calls[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (s *callSorter) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	a, b := &s.calls[i], &s.calls[j]
	if len(a.Args) != len(b.Args) {
		return len(a.Args) < len(b.Args)
	}
	for k := range a.Args {
		if a.Args[k] != b.Args[k] {
			if a.Args[k].Known != b.Args[k].Known {
				return !a.Args[k].Known
			}
			return a.Args[k].V < b.Args[k].V
		}
	}
	return false
}

func sameArgs(a, b []SummaryArg) bool {
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

func equalCall(a, b *SummaryCall) bool {
	if a.Callee.Key() != b.Callee.Key() || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

func equalSummary(a, b *TaintSummary) bool {
	if a.Inputs != b.Inputs || a.RetFrom != b.RetFrom || a.Escapes != b.Escapes ||
		a.Uses != b.Uses || a.ValidatedAllPaths != b.ValidatedAllPaths ||
		a.UncheckedUse != b.UncheckedUse {
		return false
	}
	for k := range a.StateFrom {
		if a.StateFrom[k] != b.StateFrom[k] {
			return false
		}
	}
	if len(a.CallsOnRet) != len(b.CallsOnRet) {
		return false
	}
	for i := range a.CallsOnRet {
		if !equalCall(&a.CallsOnRet[i], &b.CallsOnRet[i]) {
			return false
		}
	}
	for k := range a.CallsOn {
		if len(a.CallsOn[k]) != len(b.CallsOn[k]) {
			return false
		}
		for i := range a.CallsOn[k] {
			if !equalCall(&a.CallsOn[k][i], &b.CallsOn[k][i]) {
				return false
			}
		}
	}
	return true
}
