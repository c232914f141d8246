package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/checkers"
)

// metrics is the server's cumulative observability state, rendered at
// /metrics in the Prometheus text exposition format. Everything is built
// by folding per-scan checkers.MetricsSnapshot values (plus job-lifecycle
// events) into counters and one latency histogram — no client library,
// just the text format, so the dependency footprint stays zero.
//
// The metric catalog (DESIGN.md §8):
//
//	nchecker_jobs_submitted_total            jobs accepted into the queue
//	nchecker_jobs_total{status=...}          terminal outcomes: done, degraded, failed, rejected
//	nchecker_degraded_scans_total            scans that finished Incomplete
//	nchecker_reports_total                   warnings emitted across all jobs
//	nchecker_jobs_inflight                   gauge: jobs currently scanning
//	nchecker_queue_depth                     gauge: jobs waiting for a worker
//	nchecker_queue_capacity                  gauge: admission-queue bound
//	nchecker_scan_seconds                    histogram: end-to-end scan wall time
//	nchecker_stage_seconds_total{stage=...}  cumulative per-pipeline-stage wall time
//	nchecker_stage_items_total{stage=...}    work units examined per stage
//	nchecker_stage_reports_total{stage=...}  warnings emitted per stage
//	nchecker_checker_warnings_total{family=...,checker=...}
//	                                         warnings emitted per checker family
//	                                         (the stage rows restricted to the
//	                                         eight family-owned stages, labeled
//	                                         with the family number)
//	nchecker_app_methods_total               app methods scanned
//	nchecker_request_sites_total             request sites discovered
//	nchecker_cache_<counter>_total           every checkers.CacheStats counter
//	                                         (store_hits, store_misses, store_puts, ...)
//	nchecker_targeted_<counter>_total        targeted-engine work counters
//	                                         (seed_methods, closure_methods, closure_classes,
//	                                         classes_decoded, classes_skipped)
//	nchecker_validate_<counter>_total        dynamic-validation counters
//	                                         (confirmed, unconfirmed, not_validated,
//	                                         replays, budget_hits)
type metrics struct {
	mu sync.Mutex

	submitted int64
	jobs      map[string]int64 // terminal status → count
	degraded  int64
	reports   int64
	inflight  int64

	appMethods int64
	sites      int64

	scanHist histogram

	stageSeconds map[string]float64
	stageItems   map[string]int64
	stageReports map[string]int64
	checker      map[string]int64 // family-owned stage name → warnings

	cache    map[string]int64 // CounterMap keys
	targeted map[string]int64 // TargetedStats counter keys
	validate map[string]int64 // ValidateStats counter keys
}

func newMetrics() *metrics {
	return &metrics{
		jobs:         make(map[string]int64),
		scanHist:     newHistogram(),
		stageSeconds: make(map[string]float64),
		stageItems:   make(map[string]int64),
		stageReports: make(map[string]int64),
		checker:      make(map[string]int64),
		cache:        make(map[string]int64),
		targeted:     make(map[string]int64),
		validate:     make(map[string]int64),
	}
}

// histogram is a fixed-bucket Prometheus histogram (cumulative buckets,
// _sum and _count).
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []int64   // per-bucket (non-cumulative) observation counts
	sum    float64
	total  int64
}

func newHistogram() histogram {
	return histogram{
		bounds: []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10},
		counts: make([]int64, 12),
	}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// jobSubmitted counts an accepted job.
func (m *metrics) jobSubmitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

// jobRejected counts an admission-queue rejection.
func (m *metrics) jobRejected() {
	m.mu.Lock()
	m.jobs["rejected"]++
	m.mu.Unlock()
}

// scanStarted / scanFinished bracket the in-flight gauge.
func (m *metrics) scanStarted() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

// jobFailed records a job that produced no scan result (decode error).
func (m *metrics) jobFailed() {
	m.mu.Lock()
	m.inflight--
	m.jobs["failed"]++
	m.mu.Unlock()
}

// jobDone folds a finished scan's snapshot into the cumulative state.
func (m *metrics) jobDone(snap checkers.MetricsSnapshot, degraded bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	if degraded {
		m.jobs["degraded"]++
		m.degraded++
	} else {
		m.jobs["done"]++
	}
	m.reports += snap.Reports
	m.appMethods += snap.AppMethods
	m.sites += snap.Sites
	m.scanHist.observe(snap.TotalSeconds)
	for _, s := range snap.Stages {
		m.stageSeconds[s.Name] += s.Seconds
		m.stageItems[s.Name] += s.Items
		m.stageReports[s.Name] += s.Reports
		if checkers.FamilyOfStage(s.Name) > 0 {
			m.checker[s.Name] += s.Reports
		}
	}
	for k, v := range snap.Counters {
		m.cache[k] += v
	}
	for k, v := range snap.Targeted {
		m.targeted[k] += v
	}
	for k, v := range snap.Validate {
		m.validate[k] += v
	}
}

// fnum renders a float the way Prometheus expects (shortest round-trip).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// render emits the Prometheus text exposition. Gauges whose truth lives in
// the server (queue depth/capacity) are passed in. Output is
// deterministic: map-keyed families are emitted in sorted label order.
func (m *metrics) render(queueDepth, queueCap int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("nchecker_jobs_submitted_total", "Scan jobs accepted into the admission queue.", m.submitted)

	fmt.Fprintf(&b, "# HELP nchecker_jobs_total Scan jobs by terminal status.\n# TYPE nchecker_jobs_total counter\n")
	for _, st := range sortedKeys(m.jobs) {
		fmt.Fprintf(&b, "nchecker_jobs_total{status=%q} %d\n", st, m.jobs[st])
	}

	counter("nchecker_degraded_scans_total", "Scans that finished Incomplete (stage panic, deadline, cancellation).", m.degraded)
	counter("nchecker_reports_total", "Warning reports emitted across all jobs.", m.reports)
	gauge("nchecker_jobs_inflight", "Jobs currently being scanned.", m.inflight)
	gauge("nchecker_queue_depth", "Jobs waiting in the admission queue.", int64(queueDepth))
	gauge("nchecker_queue_capacity", "Admission queue bound.", int64(queueCap))

	fmt.Fprintf(&b, "# HELP nchecker_scan_seconds End-to-end scan wall time per job.\n# TYPE nchecker_scan_seconds histogram\n")
	cum := int64(0)
	for i, bound := range m.scanHist.bounds {
		cum += m.scanHist.counts[i]
		fmt.Fprintf(&b, "nchecker_scan_seconds_bucket{le=%q} %d\n", fnum(bound), cum)
	}
	cum += m.scanHist.counts[len(m.scanHist.bounds)]
	fmt.Fprintf(&b, "nchecker_scan_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "nchecker_scan_seconds_sum %s\n", fnum(m.scanHist.sum))
	fmt.Fprintf(&b, "nchecker_scan_seconds_count %d\n", m.scanHist.total)

	fmt.Fprintf(&b, "# HELP nchecker_stage_seconds_total Cumulative wall time per pipeline stage.\n# TYPE nchecker_stage_seconds_total counter\n")
	for _, st := range sortedKeysF(m.stageSeconds) {
		fmt.Fprintf(&b, "nchecker_stage_seconds_total{stage=%q} %s\n", st, fnum(m.stageSeconds[st]))
	}
	fmt.Fprintf(&b, "# HELP nchecker_stage_items_total Work units examined per pipeline stage.\n# TYPE nchecker_stage_items_total counter\n")
	for _, st := range sortedKeys(m.stageItems) {
		fmt.Fprintf(&b, "nchecker_stage_items_total{stage=%q} %d\n", st, m.stageItems[st])
	}
	fmt.Fprintf(&b, "# HELP nchecker_stage_reports_total Warnings emitted per pipeline stage.\n# TYPE nchecker_stage_reports_total counter\n")
	for _, st := range sortedKeys(m.stageReports) {
		fmt.Fprintf(&b, "nchecker_stage_reports_total{stage=%q} %d\n", st, m.stageReports[st])
	}

	fmt.Fprintf(&b, "# HELP nchecker_checker_warnings_total Warnings emitted per checker family.\n# TYPE nchecker_checker_warnings_total counter\n")
	for _, st := range sortedKeys(m.checker) {
		fmt.Fprintf(&b, "nchecker_checker_warnings_total{family=\"%d\",checker=%q} %d\n",
			checkers.FamilyOfStage(st), st, m.checker[st])
	}

	counter("nchecker_app_methods_total", "Body-bearing app methods scanned.", m.appMethods)
	counter("nchecker_request_sites_total", "Network request sites discovered.", m.sites)

	for _, k := range sortedKeys(m.cache) {
		counter("nchecker_cache_"+k+"_total", "Cumulative checkers.CacheStats counter "+k+".", m.cache[k])
	}
	for _, k := range sortedKeys(m.targeted) {
		counter("nchecker_targeted_"+k+"_total", "Cumulative targeted-engine counter "+k+".", m.targeted[k])
	}
	for _, k := range sortedKeys(m.validate) {
		counter("nchecker_validate_"+k+"_total", "Cumulative dynamic-validation counter "+k+".", m.validate[k])
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysF(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
