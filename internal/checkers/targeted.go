package checkers

import (
	"fmt"
	"sort"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/dex"
)

// This file is the demand-driven closure engine behind -mode=targeted
// (paper §4.2's "targeted analysis": start from the network-API call
// sites and pull in only the code that can matter, instead of scanning
// the whole app). The closure is computed from dex.MethodRef skim
// records — available both from a lazy decode (dex.Lazy.MethodRefs,
// bodies never decoded) and from a loaded program (dex.MethodRefsOf) —
// so the two scan paths demand the same classes.
//
// The engine computes two sets:
//
//	RM — relevant methods: the summary roots. Seeded by every method
//	     with a top-level call to a registry target API and every
//	     implementation of a registered request-callback subsignature
//	     (the two places the pipeline resolves summaries from), then
//	     grown backward: callers of RM methods (by callee name, which
//	     over-approximates every CHA edge), and — when an RM method
//	     implements an async-dispatch callee (run(), doInBackground(),
//	     onClick(), …) — the callers of that dispatch's trigger
//	     (Thread.start, Handler.post, setOnClickListener, …). With
//	     -icc, methods launching components (startActivity /
//	     sendBroadcast) also join RM, since ICC edges make them
//	     transitive callers of component lifecycles.
//
//	D  — demanded classes: the classes whose bodies the scan decodes
//	     and analyzes. Starts as RM's classes plus (with -icc) every
//	     explicit-intent target class and — if the app broadcasts at
//	     all — every manifest-declared receiver, then closed forward:
//	     anything a demanded class's methods call (by callee name) and
//	     anything they dispatch asynchronously joins D. Forward closure
//	     makes D contain every method any graph traversal (BFS,
//	     CallStack, ReachableFrom) can reach from a demanded entry, so
//	     reachability answers inside the closure equal the whole-app
//	     graph's.
//
// Both closures deliberately over-approximate (name-based caller
// matching, subsig-based dispatch matching, receiver-insensitive intent
// targets): extra classes cost decode time, never correctness. What must
// hold — and what the differential tests pin — is that no method any
// checker consults is missing, so reports and Stats are byte-identical
// to a full scan. DESIGN.md §9 spells out the equivalence argument.

// ICC launch subsignatures, mirroring the switch in callgraph/icc.go.
const (
	iccStartActivitySubsig = "startActivity(android.content.Intent)void"
	iccSendBroadcastSubsig = "sendBroadcast(android.content.Intent)void"
)

// targetedClosure is the converged demand: summary roots, demanded
// classes, and the size counters Diagnostics reports.
type targetedClosure struct {
	roots    []string // RM method keys, sorted; non-nil even when empty
	demanded map[string]bool
	stats    TargetedStats
}

// computeTargetedClosure runs the closure rules over the skim records.
func computeTargetedClosure(records []dex.MethodRef, reg *apimodel.Registry, man *android.Manifest, enableICC bool) targetedClosure {
	// Record indices: declaring class, own name/subsig (backward and
	// forward rules resolve callees against these), and per-callee
	// reverse maps (deduplicated per record).
	byClass := make(map[string][]int)
	recsByName := make(map[string][]int)
	recsBySubsig := make(map[string][]int)
	callersByName := make(map[string][]int)
	callersBySubsig := make(map[string][]int)
	for i := range records {
		r := &records[i]
		byClass[r.Sig.Class] = append(byClass[r.Sig.Class], i)
		recsByName[r.Sig.Name] = append(recsByName[r.Sig.Name], i)
		sub := r.Sig.SubSigKey()
		recsBySubsig[sub] = append(recsBySubsig[sub], i)
		seenName := make(map[string]bool, len(r.Calls))
		seenSub := make(map[string]bool, len(r.Calls))
		for _, c := range r.Calls {
			if !seenName[c.Name] {
				seenName[c.Name] = true
				callersByName[c.Name] = append(callersByName[c.Name], i)
			}
			if sub := c.SubSigKey(); !seenSub[sub] {
				seenSub[sub] = true
				callersBySubsig[sub] = append(callersBySubsig[sub], i)
			}
		}
	}

	// Async-dispatch table, keyed both ways: trigger subsig → dispatched
	// callee subsigs (forward rule) and callee subsig → trigger subsigs
	// (backward rule).
	triggerCallees := make(map[string][]string)
	calleeTriggers := make(map[string][]string)
	for _, d := range android.AsyncDispatches() {
		triggerCallees[d.TriggerSubsig] = append(triggerCallees[d.TriggerSubsig], d.CalleeSubsigs...)
		for _, cs := range d.CalleeSubsigs {
			calleeTriggers[cs] = append(calleeTriggers[cs], d.TriggerSubsig)
		}
	}
	callbackSubsigs := make(map[string]bool)
	for _, lib := range reg.Libraries() {
		for _, cb := range lib.Callbacks {
			if cb.ErrorSubsig != "" {
				callbackSubsigs[cb.ErrorSubsig] = true
			}
			if cb.SuccessSubsig != "" {
				callbackSubsigs[cb.SuccessSubsig] = true
			}
		}
	}

	rm := make([]bool, len(records))
	var stack []int
	add := func(i int) {
		if !rm[i] {
			rm[i] = true
			stack = append(stack, i)
		}
	}

	// Network-state handler implementations seed the closure for the
	// offline-state checker (checker5.go): BroadcastReceiver.onReceive and
	// NetworkCallback overrides. Subsig-only matching over-approximates (an
	// onReceive outside a receiver also seeds) — extra decode, never a
	// missed handler.
	networkHandlerSubsigs := map[string]bool{onReceiveSubsig: true}
	for _, sub := range android.NetworkCallbackSubsigs {
		networkHandlerSubsigs[sub] = true
	}

	// Seeds: target-API call sites, registered callback implementations —
	// exactly the methods the pipeline resolves summaries from
	// (discover.go, checker3.go, checker4.go) — plus endpoint-API callers
	// (checker7.go scans them even when no target API is nearby) and
	// network-state handlers (checker5.go).
	seedCount := 0
	for i := range records {
		r := &records[i]
		sub := r.Sig.SubSigKey()
		seed := callbackSubsigs[sub] || networkHandlerSubsigs[sub]
		for _, c := range r.Calls {
			if seed {
				break
			}
			if _, _, ok := reg.TargetOf(c); ok {
				seed = true
			} else if _, _, ok := reg.EndpointOf(c); ok {
				seed = true
			}
		}
		if seed {
			seedCount++
			add(i)
		}
	}

	// ICC roots: component launchers are callers through ICC edges.
	sawBroadcast := false
	if enableICC {
		for i := range records {
			for _, c := range records[i].Calls {
				switch c.SubSigKey() {
				case iccStartActivitySubsig:
					add(i)
				case iccSendBroadcastSubsig:
					sawBroadcast = true
					add(i)
				}
			}
		}
	}

	// Backward fixpoint over RM.
	processedName := make(map[string]bool)
	processedTrigger := make(map[string]bool)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := &records[i]
		if n := r.Sig.Name; !processedName[n] {
			processedName[n] = true
			for _, j := range callersByName[n] {
				add(j)
			}
		}
		for _, trig := range calleeTriggers[r.Sig.SubSigKey()] {
			if processedTrigger[trig] {
				continue
			}
			processedTrigger[trig] = true
			for _, j := range callersBySubsig[trig] {
				add(j)
			}
		}
	}

	// Forward class fixpoint over D. Only classes with skim records can
	// be demanded: a class with no bodied methods contributes nothing to
	// any stage.
	demanded := make(map[string]bool)
	var cstack []string
	addClass := func(cls string) {
		if demanded[cls] || len(byClass[cls]) == 0 {
			return
		}
		demanded[cls] = true
		cstack = append(cstack, cls)
	}
	for i := range records {
		if rm[i] {
			addClass(records[i].Sig.Class)
		}
	}
	if enableICC {
		// Explicit-intent targets (a superset of what callgraph/icc.go
		// resolves — it additionally requires the setClassName receiver to
		// alias the launched Intent) and, once any broadcast exists, every
		// manifest-declared receiver (icc.go wires sendBroadcast to all of
		// them).
		for i := range records {
			for _, cls := range records[i].Intents {
				addClass(cls)
			}
		}
		if sawBroadcast {
			for _, rcv := range man.Receivers {
				addClass(rcv)
			}
		}
	}
	for len(cstack) > 0 {
		cls := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		for _, i := range byClass[cls] {
			for _, c := range records[i].Calls {
				for _, j := range recsByName[c.Name] {
					addClass(records[j].Sig.Class)
				}
				for _, calleeSub := range triggerCallees[c.SubSigKey()] {
					for _, j := range recsBySubsig[calleeSub] {
						addClass(records[j].Sig.Class)
					}
				}
			}
		}
	}

	roots := make([]string, 0, seedCount)
	nm := 0
	for i := range records {
		if rm[i] {
			nm++
			roots = append(roots, records[i].Sig.Key())
		}
	}
	sort.Strings(roots)
	return targetedClosure{
		roots:    roots,
		demanded: demanded,
		stats: TargetedStats{
			SeedMethods:    seedCount,
			ClosureMethods: nm,
			ClosureClasses: len(demanded),
		},
	}
}

// prepareBuild resolves the engine mode's view of the app before the
// pipeline merges in the framework model. In full mode a lazily opened
// app is simply materialized whole. In targeted mode the closure runs
// over the skim records, freezing a.roots / a.demanded / a.tstats, and
// only the demanded classes are decoded (lazy path) or kept (in-memory
// path — the bodies exist but collectAppMethods skips them). Runs inside
// the "build" stage guard: a materialization failure (bytes changed
// under us — effectively impossible) panics into a recorded ScanError.
func (a *analysis) prepareBuild() {
	lazy := a.app.Lazy
	if a.opts.Mode != ModeTargeted {
		if lazy != nil {
			if err := lazy.MaterializeAll(); err != nil {
				panic(fmt.Sprintf("materialize all: %v", err))
			}
		}
		return
	}
	var records []dex.MethodRef
	if lazy != nil {
		records = lazy.MethodRefs()
	} else {
		records = dex.MethodRefsOf(a.app.Program)
	}
	cl := computeTargetedClosure(records, a.reg, a.app.Manifest, a.opts.EnableICC)
	a.roots = cl.roots
	a.demanded = cl.demanded
	a.tstats = cl.stats
	a.tstats.ClassesDecoded = len(cl.demanded)
	if lazy != nil {
		a.tstats.ClassesSkipped = lazy.NumBodiedClasses() - len(cl.demanded)
		classes := make([]string, 0, len(cl.demanded))
		for cls := range cl.demanded {
			classes = append(classes, cls)
		}
		sort.Strings(classes)
		for _, cls := range classes {
			if err := lazy.Materialize(cls); err != nil {
				panic(fmt.Sprintf("materialize %s: %v", cls, err))
			}
		}
		return
	}
	bodied := 0
	for _, c := range a.app.Program.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				bodied++
				break
			}
		}
	}
	a.tstats.ClassesSkipped = bodied - len(cl.demanded)
}
