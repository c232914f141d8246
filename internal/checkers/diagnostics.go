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
	// to cold computation. All zero when the persistent cache is off.
	StoreProbes, StoreHits, StoreMisses, StoreCorrupt int
	StorePuts, StorePutErrors, StoreEvicted           int
	// SummariesSeeded and ClassDigests are always 0. They counted the
	// per-class summary cache, which was removed; the fields stay declared
	// because the benchmark's per-layer trace (perfbench/trace.go) still
	// reads them, and are neither merged, exported by CounterMap, nor
	// rendered.
	SummariesSeeded, ClassDigests int
}

// CFGHits returns the number of CFG requests served from the cache.
func (c CacheStats) CFGHits() int { return c.CFGRequests - c.CFGComputed }

// ReachDefsHits returns the reaching-defs requests served from the cache.
func (c CacheStats) ReachDefsHits() int { return c.ReachDefsRequests - c.ReachDefsComputed }

// TargetedStats counts the work the targeted engine mode demanded vs.
// skipped. All zero in full mode (and on cache-hit scans, which do no
// closure work).
type TargetedStats struct {
	// SeedMethods counts the closure's roots: methods with a target-API
	// call plus registered callback implementations.
	SeedMethods int
	// ClosureMethods / ClosureClasses size the converged relevant-method
	// and demanded-class sets.
	ClosureMethods int
	ClosureClasses int
	// ClassesDecoded / ClassesSkipped split the app's body-bearing classes
	// into materialized and never-decoded (lazy scan path) or analyzed and
	// excluded (in-memory path).
	ClassesDecoded int
	ClassesSkipped int
}

func (t *TargetedStats) add(o TargetedStats) {
	t.SeedMethods += o.SeedMethods
	t.ClosureMethods += o.ClosureMethods
	t.ClosureClasses += o.ClosureClasses
	t.ClassesDecoded += o.ClassesDecoded
	t.ClassesSkipped += o.ClassesSkipped
}

// counterMap flattens TargetedStats for metric export (the
// nchecker_targeted_* family of nchecker serve's /metrics).
func (t TargetedStats) counterMap() map[string]int64 {
	return map[string]int64{
		"seed_methods":    int64(t.SeedMethods),
		"closure_methods": int64(t.ClosureMethods),
		"closure_classes": int64(t.ClosureClasses),
		"classes_decoded": int64(t.ClassesDecoded),
		"classes_skipped": int64(t.ClassesSkipped),
	}
}

// ValidateStats counts the dynamic-validation stage's work and verdicts.
// All zero when Options.Validate is off (and on cache-hit scans, which
// restore verdicts without replaying).
type ValidateStats struct {
	// Confirmed / Unconfirmed / NotValidated partition the scan's warnings
	// by verdict; their sum is the number of warnings examined.
	Confirmed    int
	Unconfirmed  int
	NotValidated int
	// Replays counts entry × scenario machine executions (shared across
	// warnings with the same witness entry).
	Replays int
	// BudgetHits counts replays truncated by the interpreter step budget.
	BudgetHits int
}

func (v *ValidateStats) add(o ValidateStats) {
	v.Confirmed += o.Confirmed
	v.Unconfirmed += o.Unconfirmed
	v.NotValidated += o.NotValidated
	v.Replays += o.Replays
	v.BudgetHits += o.BudgetHits
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

// counterMap flattens ValidateStats for metric export (the
// nchecker_validate_* family of nchecker serve's /metrics).
func (v ValidateStats) counterMap() map[string]int64 {
	return map[string]int64{
		"confirmed":     int64(v.Confirmed),
		"unconfirmed":   int64(v.Unconfirmed),
		"not_validated": int64(v.NotValidated),
		"replays":       int64(v.Replays),
		"budget_hits":   int64(v.BudgetHits),
	}
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

// merge accumulates another scan's diagnostics into d (stage-wise and
// cache-wise), for corpus-level aggregation. Workers is kept from d.
func (d *Diagnostics) Merge(o Diagnostics) {
	d.Total += o.Total
	d.AppMethods += o.AppMethods
	d.Sites += o.Sites
	d.Targeted.add(o.Targeted)
	d.Validate.add(o.Validate)
	for _, s := range o.Stages {
		if have := d.Stage(s.Name); have != nil {
			have.Duration += s.Duration
			have.Items += s.Items
			have.Reports += s.Reports
		} else {
			d.Stages = append(d.Stages, s)
		}
	}
	d.Cache.Methods += o.Cache.Methods
	d.Cache.CFGComputed += o.Cache.CFGComputed
	d.Cache.CFGRequests += o.Cache.CFGRequests
	d.Cache.ReachDefsComputed += o.Cache.ReachDefsComputed
	d.Cache.ReachDefsRequests += o.Cache.ReachDefsRequests
	d.Cache.ConstPropComputed += o.Cache.ConstPropComputed
	d.Cache.ConstPropRequests += o.Cache.ConstPropRequests
	d.Cache.DominatorsComputed += o.Cache.DominatorsComputed
	d.Cache.DominatorsRequests += o.Cache.DominatorsRequests
	d.Cache.LoopsComputed += o.Cache.LoopsComputed
	d.Cache.LoopsRequests += o.Cache.LoopsRequests
	d.Cache.SlicersComputed += o.Cache.SlicersComputed
	d.Cache.SlicerRequests += o.Cache.SlicerRequests
	d.Cache.SummariesComputed += o.Cache.SummariesComputed
	d.Cache.SummaryRequests += o.Cache.SummaryRequests
	d.Cache.SummarySCCs += o.Cache.SummarySCCs
	d.Cache.SummaryFixpointIters += o.Cache.SummaryFixpointIters
	d.Cache.FeasibleCFGComputed += o.Cache.FeasibleCFGComputed
	d.Cache.FeasibleCFGRequests += o.Cache.FeasibleCFGRequests
	d.Cache.PrunedEdges += o.Cache.PrunedEdges
	d.Cache.StoreProbes += o.Cache.StoreProbes
	d.Cache.StoreHits += o.Cache.StoreHits
	d.Cache.StoreMisses += o.Cache.StoreMisses
	d.Cache.StoreCorrupt += o.Cache.StoreCorrupt
	d.Cache.StorePuts += o.Cache.StorePuts
	d.Cache.StorePutErrors += o.Cache.StorePutErrors
	d.Cache.StoreEvicted += o.Cache.StoreEvicted
	d.Errors = append(d.Errors, o.Errors...)
}

// CounterMap flattens every CacheStats counter into a stable snake_case
// name → value map, the shape metric exporters (nchecker serve's /metrics)
// consume. TestCacheStatsCounterMapComplete pins the contract: every
// live CacheStats field appears here (the always-zero SummariesSeeded and
// ClassDigests do not), so a new counter cannot be added without also
// being exported.
func (c CacheStats) CounterMap() map[string]int64 {
	return map[string]int64{
		"methods":                int64(c.Methods),
		"cfg_computed":           int64(c.CFGComputed),
		"cfg_requests":           int64(c.CFGRequests),
		"reachdefs_computed":     int64(c.ReachDefsComputed),
		"reachdefs_requests":     int64(c.ReachDefsRequests),
		"constprop_computed":     int64(c.ConstPropComputed),
		"constprop_requests":     int64(c.ConstPropRequests),
		"dominators_computed":    int64(c.DominatorsComputed),
		"dominators_requests":    int64(c.DominatorsRequests),
		"loops_computed":         int64(c.LoopsComputed),
		"loops_requests":         int64(c.LoopsRequests),
		"slicers_computed":       int64(c.SlicersComputed),
		"slicer_requests":        int64(c.SlicerRequests),
		"summaries_computed":     int64(c.SummariesComputed),
		"summary_requests":       int64(c.SummaryRequests),
		"summary_sccs":           int64(c.SummarySCCs),
		"summary_fixpoint_iters": int64(c.SummaryFixpointIters),
		"feasible_cfg_computed":  int64(c.FeasibleCFGComputed),
		"feasible_cfg_requests":  int64(c.FeasibleCFGRequests),
		"pruned_edges":           int64(c.PrunedEdges),
		"store_probes":           int64(c.StoreProbes),
		"store_hits":             int64(c.StoreHits),
		"store_misses":           int64(c.StoreMisses),
		"store_corrupt":          int64(c.StoreCorrupt),
		"store_puts":             int64(c.StorePuts),
		"store_put_errors":       int64(c.StorePutErrors),
		"store_evicted":          int64(c.StoreEvicted),
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
	Counters     map[string]int64 // CacheStats.CounterMap
	Targeted     map[string]int64 // TargetedStats, flattened
	Validate     map[string]int64 // ValidateStats, flattened
}

// MetricsSnapshot flattens the diagnostics for metric export.
func (d *Diagnostics) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		TotalSeconds: d.Total.Seconds(),
		AppMethods:   int64(d.AppMethods),
		Sites:        int64(d.Sites),
		ScanErrors:   int64(len(d.Errors)),
		Counters:     d.Cache.CounterMap(),
		Targeted:     d.Targeted.counterMap(),
		Validate:     d.Validate.counterMap(),
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
	if d.Mode == ModeTargeted {
		t := d.Targeted
		fmt.Fprintf(&b, "  targeted: %d seeds -> %d methods over %d classes; classes decoded %d, skipped %d\n",
			t.SeedMethods, t.ClosureMethods, t.ClosureClasses, t.ClassesDecoded, t.ClassesSkipped)
	}
	if v := d.Validate; v != (ValidateStats{}) {
		fmt.Fprintf(&b, "  validate: %d confirmed, %d unconfirmed, %d not-validated; %d replays (%d budget-truncated)\n",
			v.Confirmed, v.Unconfirmed, v.NotValidated, v.Replays, v.BudgetHits)
	}
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
	c := d.Cache
	fmt.Fprintf(&b, "  cache (computed/requests over %d methods): cfg %d/%d  reachdefs %d/%d  constprop %d/%d  dominators %d/%d  loops %d/%d  slicer %d/%d\n",
		c.Methods, c.CFGComputed, c.CFGRequests, c.ReachDefsComputed, c.ReachDefsRequests,
		c.ConstPropComputed, c.ConstPropRequests, c.DominatorsComputed, c.DominatorsRequests,
		c.LoopsComputed, c.LoopsRequests, c.SlicersComputed, c.SlicerRequests)
	fmt.Fprintf(&b, "  summaries: %d methods over %d SCCs (%d fixpoint iters), %d consults; feasibility: %d/%d pruned CFGs, %d dead edges\n",
		c.SummariesComputed, c.SummarySCCs, c.SummaryFixpointIters, c.SummaryRequests,
		c.FeasibleCFGComputed, c.FeasibleCFGRequests, c.PrunedEdges)
	if c.StoreProbes > 0 || c.StorePuts > 0 || c.StorePutErrors > 0 {
		fmt.Fprintf(&b, "  store: %d probes (%d hits, %d misses, %d corrupt); %d puts (%d errors), %d evicted\n",
			c.StoreProbes, c.StoreHits, c.StoreMisses, c.StoreCorrupt,
			c.StorePuts, c.StorePutErrors, c.StoreEvicted)
	}
	for i := range d.Errors {
		fmt.Fprintf(&b, "  error: %v\n", &d.Errors[i])
	}
	return b.String()
}
