package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/checkers"
)

// metrics is the server's cumulative observability state: per-scan
// checkers.MetricsSnapshot values and job-lifecycle events folded into
// counters and one latency histogram. GET /metrics renders it in the
// Prometheus text exposition format (the catalog is DESIGN.md §8) — no
// client library, just the text format, so the dependency footprint
// stays zero.
type metrics struct {
	mu sync.Mutex
	st metricsState
}

func newMetrics() *metrics {
	return &metrics{st: newMetricsState()}
}

// metricsState is the cumulative state as a plain value. It encodes as
// JSON, which is how a fleet coordinator fetches it from each worker
// (GET /metrics/state), and merge sums states, so the coordinator renders
// the fleet's sum with the same render a worker uses (DESIGN.md §12).
type metricsState struct {
	Submitted int64
	Jobs      map[string]int64 // terminal status → count
	Degraded  int64
	Reports   int64
	Inflight  int64
	// QueueDepth and QueueCap are gauges whose truth lives in the Server;
	// they are filled in when the state is rendered or encoded.
	QueueDepth, QueueCap int64

	AppMethods int64
	Sites      int64

	ScanSeconds histogram

	StageSeconds map[string]float64
	StageItems   map[string]int64
	StageReports map[string]int64
	Checker      map[string]int64 // family-owned stage name → warnings
	Counters     map[string]int64 // checkers.Counter name → total
}

func newMetricsState() metricsState {
	return metricsState{
		Jobs:         make(map[string]int64),
		ScanSeconds:  newHistogram(),
		StageSeconds: make(map[string]float64),
		StageItems:   make(map[string]int64),
		StageReports: make(map[string]int64),
		Checker:      make(map[string]int64),
		Counters:     make(map[string]int64),
	}
}

// histogram is a fixed-bucket Prometheus histogram (cumulative buckets,
// _sum and _count).
type histogram struct {
	Bounds []float64 // upper bounds, ascending; +Inf implicit
	Counts []int64   // per-bucket (non-cumulative) observation counts
	Sum    float64
	Total  int64
}

func newHistogram() histogram {
	return histogram{
		Bounds: []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10},
		Counts: make([]int64, 12),
	}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v) // first bound >= v
	h.Counts[i]++
	h.Sum += v
	h.Total++
}

// merge adds o into s: counters, gauges and histogram buckets all add. o
// may come from another process, so it is checked before anything is
// added: a histogram with other buckets than s's is an error and leaves
// s unchanged, and checker warnings count only under family-owned stages.
func (s *metricsState) merge(o *metricsState) error {
	if !slices.Equal(o.ScanSeconds.Bounds, s.ScanSeconds.Bounds) ||
		len(o.ScanSeconds.Counts) != len(s.ScanSeconds.Counts) {
		return errors.New("scan_seconds histogram buckets differ")
	}
	s.Submitted += o.Submitted
	s.Degraded += o.Degraded
	s.Reports += o.Reports
	s.Inflight += o.Inflight
	s.QueueDepth += o.QueueDepth
	s.QueueCap += o.QueueCap
	s.AppMethods += o.AppMethods
	s.Sites += o.Sites
	for i, n := range o.ScanSeconds.Counts {
		s.ScanSeconds.Counts[i] += n
	}
	s.ScanSeconds.Sum += o.ScanSeconds.Sum
	s.ScanSeconds.Total += o.ScanSeconds.Total
	addInto(s.Jobs, o.Jobs)
	addInto(s.StageSeconds, o.StageSeconds)
	addInto(s.StageItems, o.StageItems)
	addInto(s.StageReports, o.StageReports)
	for st, n := range o.Checker {
		if checkers.FamilyOfStage(st) > 0 {
			s.Checker[st] += n
		}
	}
	addInto(s.Counters, o.Counters)
	return nil
}

func addInto[V int64 | float64](dst, src map[string]V) {
	for k, v := range src {
		dst[k] += v
	}
}

// render renders the cumulative state with the queue gauges filled in.
func (m *metrics) render(queueDepth, queueCap int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.QueueDepth, m.st.QueueCap = int64(queueDepth), int64(queueCap)
	return m.st.render()
}

// stateJSON encodes the cumulative state with the queue gauges filled in.
func (m *metrics) stateJSON(queueDepth, queueCap int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.QueueDepth, m.st.QueueCap = int64(queueDepth), int64(queueCap)
	return json.Marshal(&m.st)
}

// jobSubmitted counts an accepted job.
func (m *metrics) jobSubmitted() {
	m.mu.Lock()
	m.st.Submitted++
	m.mu.Unlock()
}

// jobRejected counts an admission-queue rejection.
func (m *metrics) jobRejected() {
	m.mu.Lock()
	m.st.Jobs["rejected"]++
	m.mu.Unlock()
}

// scanStarted brackets the in-flight gauge with jobFailed / jobDone.
func (m *metrics) scanStarted() {
	m.mu.Lock()
	m.st.Inflight++
	m.mu.Unlock()
}

// jobFailed records a job that produced no scan result (decode error).
func (m *metrics) jobFailed() {
	m.mu.Lock()
	m.st.Inflight--
	m.st.Jobs["failed"]++
	m.mu.Unlock()
}

// jobDone folds a finished scan's snapshot into the cumulative state.
func (m *metrics) jobDone(snap checkers.MetricsSnapshot, degraded bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.st
	s.Inflight--
	if degraded {
		s.Jobs["degraded"]++
		s.Degraded++
	} else {
		s.Jobs["done"]++
	}
	s.Reports += snap.Reports
	s.AppMethods += snap.AppMethods
	s.Sites += snap.Sites
	s.ScanSeconds.observe(snap.TotalSeconds)
	for _, st := range snap.Stages {
		s.StageSeconds[st.Name] += st.Seconds
		s.StageItems[st.Name] += st.Items
		s.StageReports[st.Name] += st.Reports
		if checkers.FamilyOfStage(st.Name) > 0 {
			s.Checker[st.Name] += st.Reports
		}
	}
	addInto(s.Counters, snap.Counters)
}

// fnum renders a float the way Prometheus expects (shortest round-trip).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// render emits the Prometheus text exposition. Output is deterministic:
// map-keyed families are emitted in sorted label order, the scan counters
// in checkers.Counters order.
func (s *metricsState) render() string {
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("nchecker_jobs_submitted_total", "Scan jobs accepted into the admission queue.", s.Submitted)

	fmt.Fprintf(&b, "# HELP nchecker_jobs_total Scan jobs by terminal status.\n# TYPE nchecker_jobs_total counter\n")
	for _, st := range sortedKeys(s.Jobs) {
		fmt.Fprintf(&b, "nchecker_jobs_total{status=%q} %d\n", st, s.Jobs[st])
	}

	counter("nchecker_degraded_scans_total", "Scans that finished Incomplete (stage panic, deadline, cancellation).", s.Degraded)
	counter("nchecker_reports_total", "Warning reports emitted across all jobs.", s.Reports)
	gauge("nchecker_jobs_inflight", "Jobs currently being scanned.", s.Inflight)
	gauge("nchecker_queue_depth", "Jobs waiting in the admission queue.", s.QueueDepth)
	gauge("nchecker_queue_capacity", "Admission queue bound.", s.QueueCap)

	h := s.ScanSeconds
	fmt.Fprintf(&b, "# HELP nchecker_scan_seconds End-to-end scan wall time per job.\n# TYPE nchecker_scan_seconds histogram\n")
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(&b, "nchecker_scan_seconds_bucket{le=%q} %d\n", fnum(bound), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(&b, "nchecker_scan_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "nchecker_scan_seconds_sum %s\n", fnum(h.Sum))
	fmt.Fprintf(&b, "nchecker_scan_seconds_count %d\n", h.Total)

	fmt.Fprintf(&b, "# HELP nchecker_stage_seconds_total Cumulative wall time per pipeline stage.\n# TYPE nchecker_stage_seconds_total counter\n")
	for _, st := range sortedKeys(s.StageSeconds) {
		fmt.Fprintf(&b, "nchecker_stage_seconds_total{stage=%q} %s\n", st, fnum(s.StageSeconds[st]))
	}
	fmt.Fprintf(&b, "# HELP nchecker_stage_items_total Work units examined per pipeline stage.\n# TYPE nchecker_stage_items_total counter\n")
	for _, st := range sortedKeys(s.StageItems) {
		fmt.Fprintf(&b, "nchecker_stage_items_total{stage=%q} %d\n", st, s.StageItems[st])
	}
	fmt.Fprintf(&b, "# HELP nchecker_stage_reports_total Warnings emitted per pipeline stage.\n# TYPE nchecker_stage_reports_total counter\n")
	for _, st := range sortedKeys(s.StageReports) {
		fmt.Fprintf(&b, "nchecker_stage_reports_total{stage=%q} %d\n", st, s.StageReports[st])
	}

	fmt.Fprintf(&b, "# HELP nchecker_checker_warnings_total Warnings emitted per checker family.\n# TYPE nchecker_checker_warnings_total counter\n")
	for _, st := range sortedKeys(s.Checker) {
		fmt.Fprintf(&b, "nchecker_checker_warnings_total{family=\"%d\",checker=%q} %d\n",
			checkers.FamilyOfStage(st), st, s.Checker[st])
	}

	counter("nchecker_app_methods_total", "Body-bearing app methods scanned.", s.AppMethods)
	counter("nchecker_request_sites_total", "Network request sites discovered.", s.Sites)

	for _, c := range checkers.Counters {
		counter("nchecker_"+c.Layer+"_"+c.Name+"_total", c.Help, s.Counters[c.Name])
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
