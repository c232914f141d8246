package checkers

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/report"
)

// StageTiming records one pipeline stage's wall time and work volume.
// Stages overlap when Options.Workers > 1, so durations do not sum to
// Diagnostics.Total.
type StageTiming struct {
	Name     string
	Duration time.Duration
	Items    int // work units examined: request sites, or methods
	Reports  int // warnings the stage emitted
}

// CacheStats counts AnalysisContext artifact computations vs. requests.
// Hits are Requests − Computed; Computed never exceeds the number of
// distinct methods, proving each artifact is built at most once per
// method per scan.
type CacheStats struct {
	Methods int // distinct methods with at least one cached artifact

	CFGComputed, CFGRequests               int
	ReachDefsComputed, ReachDefsRequests   int
	ConstPropComputed, ConstPropRequests   int
	DominatorsComputed, DominatorsRequests int
	LoopsComputed, LoopsRequests           int
	SlicersComputed, SlicerRequests        int

	// Interprocedural summary engine: the summary set is built once per
	// scan (SummariesComputed = methods summarized, over SummarySCCs
	// condensation components, spending SummaryFixpointIters extra passes
	// on recursive cycles); every later consult is a cache hit
	// (SummaryRequests − SummariesComputed).
	SummariesComputed, SummaryRequests int
	SummarySCCs, SummaryFixpointIters  int
	// Path-feasibility pruning: pruned per-method CFGs built vs. requested,
	// and the total statically-dead edges removed.
	FeasibleCFGComputed, FeasibleCFGRequests int
	PrunedEdges                              int

	// Persistent store (Options.CacheDir) traffic: result-entry probes
	// and their outcomes, and the write side. StoreCorrupt counts
	// corrupt/truncated entries and in-cache panics, all of which degrade
	// to cold computation. StoreEvicted counts the files eviction unlinked
	// (whole segments, or files older engines left). All zero when the
	// persistent cache is off.
	StoreProbes, StoreHits, StoreMisses, StoreCorrupt int
	StorePuts, StorePutErrors, StoreEvicted           int
	// SummariesSeeded and ClassDigests are always 0. They counted the
	// per-class summary cache, which was removed; the fields stay declared
	// because the benchmark's per-layer trace (perfbench/trace.go) still
	// reads them, and have no row in the counter table.
	SummariesSeeded, ClassDigests int
}

// CFGHits returns the number of CFG requests served from the cache.
func (c CacheStats) CFGHits() int { return c.CFGRequests - c.CFGComputed }

// ReachDefsHits returns the reaching-defs requests served from the cache.
func (c CacheStats) ReachDefsHits() int { return c.ReachDefsRequests - c.ReachDefsComputed }

// TargetedStats counts the work the targeted engine mode demanded vs.
// skipped. All zero in full mode (and on cache-hit scans, which do no
// closure work). ClassesDecoded and ClassesSkipped split the app's
// body-bearing classes into materialized and never decoded (lazy scan
// path), or analyzed and excluded (in-memory path).
type TargetedStats struct {
	SeedMethods    int
	ClosureMethods int
	ClosureClasses int
	ClassesDecoded int
	ClassesSkipped int
}

// ValidateStats counts the dynamic-validation stage's work and verdicts.
// All zero when Options.Validate is off (and on cache-hit scans, which
// restore verdicts without replaying). Confirmed, Unconfirmed and
// NotValidated partition the scan's warnings; Replays counts entry ×
// scenario executions, shared across warnings with the same witness
// entry.
type ValidateStats struct {
	Confirmed    int
	Unconfirmed  int
	NotValidated int
	Replays      int
	BudgetHits   int
}

// count tallies one warning's verdict (a report.Validation* value).
func (v *ValidateStats) count(verdict string) {
	switch verdict {
	case report.ValidationConfirmed:
		v.Confirmed++
	case report.ValidationUnconfirmed:
		v.Unconfirmed++
	default:
		v.NotValidated++
	}
}

// Counter is one row of the scan counter table: the single declaration
// of a counter's name, help text and home in Diagnostics. Merge, the
// counter lines of Render, MetricsSnapshot and the /metrics exposition
// of internal/server all iterate Counters.
type Counter struct {
	// Layer groups the counter: "cache", "targeted" or "validate". It
	// names the counter's -timings line and prefixes its metric,
	// nchecker_<layer>_<name>_total.
	Layer string
	Name  string // snake_case, unique across the table
	Help  string
	field func(*Diagnostics) *int
}

// Counters is the counter table, grouped by layer.
var Counters = []Counter{
	{"cache", "methods", "Distinct methods with at least one cached analysis artifact.", func(d *Diagnostics) *int { return &d.Cache.Methods }},
	{"cache", "cfg_computed", "Per-method CFGs built.", func(d *Diagnostics) *int { return &d.Cache.CFGComputed }},
	{"cache", "cfg_requests", "Per-method CFG requests.", func(d *Diagnostics) *int { return &d.Cache.CFGRequests }},
	{"cache", "reachdefs_computed", "Reaching-definitions solutions built.", func(d *Diagnostics) *int { return &d.Cache.ReachDefsComputed }},
	{"cache", "reachdefs_requests", "Reaching-definitions requests.", func(d *Diagnostics) *int { return &d.Cache.ReachDefsRequests }},
	{"cache", "constprop_computed", "Constant-propagation solutions built.", func(d *Diagnostics) *int { return &d.Cache.ConstPropComputed }},
	{"cache", "constprop_requests", "Constant-propagation requests.", func(d *Diagnostics) *int { return &d.Cache.ConstPropRequests }},
	{"cache", "dominators_computed", "Dominator trees built.", func(d *Diagnostics) *int { return &d.Cache.DominatorsComputed }},
	{"cache", "dominators_requests", "Dominator-tree requests.", func(d *Diagnostics) *int { return &d.Cache.DominatorsRequests }},
	{"cache", "loops_computed", "Natural-loop sets built.", func(d *Diagnostics) *int { return &d.Cache.LoopsComputed }},
	{"cache", "loops_requests", "Natural-loop requests.", func(d *Diagnostics) *int { return &d.Cache.LoopsRequests }},
	{"cache", "slicers_computed", "Backward slicers built.", func(d *Diagnostics) *int { return &d.Cache.SlicersComputed }},
	{"cache", "slicer_requests", "Backward-slicer requests.", func(d *Diagnostics) *int { return &d.Cache.SlicerRequests }},
	{"cache", "summaries_computed", "Methods given an interprocedural taint summary.", func(d *Diagnostics) *int { return &d.Cache.SummariesComputed }},
	{"cache", "summary_requests", "Taint-summary consults.", func(d *Diagnostics) *int { return &d.Cache.SummaryRequests }},
	{"cache", "summary_sccs", "Call-graph SCCs the summaries were built over.", func(d *Diagnostics) *int { return &d.Cache.SummarySCCs }},
	{"cache", "summary_fixpoint_iters", "Extra summary passes spent on recursive cycles.", func(d *Diagnostics) *int { return &d.Cache.SummaryFixpointIters }},
	{"cache", "feasible_cfg_computed", "Feasibility-pruned CFGs built.", func(d *Diagnostics) *int { return &d.Cache.FeasibleCFGComputed }},
	{"cache", "feasible_cfg_requests", "Feasibility-pruned CFG requests.", func(d *Diagnostics) *int { return &d.Cache.FeasibleCFGRequests }},
	{"cache", "pruned_edges", "Statically dead CFG edges pruned.", func(d *Diagnostics) *int { return &d.Cache.PrunedEdges }},
	{"cache", "store_probes", "Persistent-cache result-entry probes.", func(d *Diagnostics) *int { return &d.Cache.StoreProbes }},
	{"cache", "store_hits", "Persistent-cache probes answered from the store.", func(d *Diagnostics) *int { return &d.Cache.StoreHits }},
	{"cache", "store_misses", "Persistent-cache probes that missed.", func(d *Diagnostics) *int { return &d.Cache.StoreMisses }},
	{"cache", "store_corrupt", "Corrupt persistent-cache entries and in-cache panics.", func(d *Diagnostics) *int { return &d.Cache.StoreCorrupt }},
	{"cache", "store_puts", "Persistent-cache entries written.", func(d *Diagnostics) *int { return &d.Cache.StorePuts }},
	{"cache", "store_put_errors", "Persistent-cache writes that failed.", func(d *Diagnostics) *int { return &d.Cache.StorePutErrors }},
	{"cache", "store_evicted", "Persistent-cache files eviction unlinked.", func(d *Diagnostics) *int { return &d.Cache.StoreEvicted }},

	{"targeted", "seed_methods", "Closure roots: methods with a target-API call plus registered callbacks.", func(d *Diagnostics) *int { return &d.Targeted.SeedMethods }},
	{"targeted", "closure_methods", "Methods in the converged relevant-method closure.", func(d *Diagnostics) *int { return &d.Targeted.ClosureMethods }},
	{"targeted", "closure_classes", "Classes in the demanded-class closure.", func(d *Diagnostics) *int { return &d.Targeted.ClosureClasses }},
	{"targeted", "classes_decoded", "Body-bearing app classes decoded or analyzed.", func(d *Diagnostics) *int { return &d.Targeted.ClassesDecoded }},
	{"targeted", "classes_skipped", "Body-bearing app classes never decoded or excluded.", func(d *Diagnostics) *int { return &d.Targeted.ClassesSkipped }},

	{"validate", "confirmed", "Warnings a replay confirmed.", func(d *Diagnostics) *int { return &d.Validate.Confirmed }},
	{"validate", "unconfirmed", "Warnings no replay confirmed.", func(d *Diagnostics) *int { return &d.Validate.Unconfirmed }},
	{"validate", "not_validated", "Warnings left without a verdict.", func(d *Diagnostics) *int { return &d.Validate.NotValidated }},
	{"validate", "replays", "Entry-by-scenario replays executed.", func(d *Diagnostics) *int { return &d.Validate.Replays }},
	{"validate", "budget_hits", "Replays truncated by the interpreter step budget.", func(d *Diagnostics) *int { return &d.Validate.BudgetHits }},
}

// Diagnostics is the per-scan observability record: where the time went,
// how much was analyzed, and how well the shared analysis cache worked.
// It is populated by every Analyze call and threaded through core.Result
// to cmd/nchecker (-timings) and the experiment harness.
type Diagnostics struct {
	Total      time.Duration
	Workers    int        // resolved worker count the scan ran with
	Mode       EngineMode // engine traversal the scan ran with
	AppMethods int        // body-bearing app methods scanned
	Sites      int        // request sites discovered
	Targeted   TargetedStats
	Validate   ValidateStats
	Stages     []StageTiming
	Cache      CacheStats
	// Errors lists the scan's survivable failures (stage panics, expired
	// deadlines, cancellations), sorted by stage order then unit index.
	// Non-empty exactly when the Result is Incomplete.
	Errors []ScanError
}

// Stage returns the timing record of the named stage, or nil.
func (d *Diagnostics) Stage(name string) *StageTiming {
	for i := range d.Stages {
		if d.Stages[i].Name == name {
			return &d.Stages[i]
		}
	}
	return nil
}

// add appends a stage record.
func (d *Diagnostics) add(name string, dur time.Duration, items, reports int) {
	d.Stages = append(d.Stages, StageTiming{Name: name, Duration: dur, Items: items, Reports: reports})
}

// Merge accumulates another scan's diagnostics into d (stage-wise and
// counter-wise), for corpus-level aggregation. Workers and Mode are kept
// from d.
func (d *Diagnostics) Merge(o Diagnostics) {
	d.Total += o.Total
	d.AppMethods += o.AppMethods
	d.Sites += o.Sites
	for _, s := range o.Stages {
		if have := d.Stage(s.Name); have != nil {
			have.Duration += s.Duration
			have.Items += s.Items
			have.Reports += s.Reports
		} else {
			d.Stages = append(d.Stages, s)
		}
	}
	d.addCounters(&o)
	d.Errors = append(d.Errors, o.Errors...)
}

// addCounters adds every table counter of o into d.
func (d *Diagnostics) addCounters(o *Diagnostics) {
	for _, c := range Counters {
		*c.field(d) += *c.field(o)
	}
}

// StageMetric is one pipeline stage's timing flattened for metric export.
type StageMetric struct {
	Name    string
	Seconds float64
	Items   int64
	Reports int64
}

// MetricsSnapshot is the metric-exporter view of one scan's Diagnostics:
// plain numbers under stable names, ready to be folded into cumulative
// counters and histograms (see internal/server).
type MetricsSnapshot struct {
	TotalSeconds float64
	AppMethods   int64
	Sites        int64
	Reports      int64 // warnings across all stages
	ScanErrors   int64 // recorded survivable failures (non-zero ⇒ degraded)
	Stages       []StageMetric
	Counters     map[string]int64 // every table counter, by Counter.Name
}

// MetricsSnapshot flattens the diagnostics for metric export.
func (d *Diagnostics) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		TotalSeconds: d.Total.Seconds(),
		AppMethods:   int64(d.AppMethods),
		Sites:        int64(d.Sites),
		ScanErrors:   int64(len(d.Errors)),
		Counters:     make(map[string]int64, len(Counters)),
	}
	for _, c := range Counters {
		snap.Counters[c.Name] = int64(*c.field(d))
	}
	for _, s := range d.Stages {
		snap.Reports += int64(s.Reports)
		snap.Stages = append(snap.Stages, StageMetric{
			Name:    s.Name,
			Seconds: s.Duration.Seconds(),
			Items:   int64(s.Items),
			Reports: int64(s.Reports),
		})
	}
	return snap
}

// Render formats the diagnostics for the -timings flag.
func (d Diagnostics) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %v total, %d workers, %d app methods, %d request sites\n",
		d.Total.Round(time.Microsecond), d.Workers, d.AppMethods, d.Sites)
	for _, s := range d.Stages {
		fmt.Fprintf(&b, "  stage %-14s %12v  items=%-5d reports=%d\n",
			s.Name, s.Duration.Round(time.Microsecond), s.Items, s.Reports)
	}
	// Per-family warning counters (families whose stage ran; an ablated
	// family is simply absent).
	famLine := ""
	for f := 1; f <= NumCheckerFamilies; f++ {
		name := StageOfFamily(f)
		total, present := 0, false
		for _, s := range d.Stages {
			if s.Name == name {
				present = true
				total += s.Reports
			}
		}
		if present {
			famLine += fmt.Sprintf(" %d:%s=%d", f, name, total)
		}
	}
	if famLine != "" {
		fmt.Fprintf(&b, "  checker families:%s\n", famLine)
	}
	// One line per counter layer, printed when any of its counters is
	// non-zero.
	for i := 0; i < len(Counters); {
		layer, line, nonzero := Counters[i].Layer, "", false
		for ; i < len(Counters) && Counters[i].Layer == layer; i++ {
			v := *Counters[i].field(&d)
			nonzero = nonzero || v != 0
			line += fmt.Sprintf(" %s=%d", Counters[i].Name, v)
		}
		if nonzero {
			fmt.Fprintf(&b, "  %s:%s\n", layer, line)
		}
	}
	for i := range d.Errors {
		fmt.Fprintf(&b, "  error: %v\n", &d.Errors[i])
	}
	return b.String()
}
