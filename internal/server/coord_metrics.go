package server

import (
	"fmt"
	"strings"
	"sync"
)

// coordMetrics is the coordinator's own observability state: fleet
// lifecycle and dispatch counters under nchecker_fleet_*, kept apart from
// the per-scan nchecker_* series the workers own. GET /metrics renders
// these followed by the sum of every live worker's metrics state, so one
// Prometheus target sees the whole fleet.
type coordMetrics struct {
	mu sync.Mutex

	jobsSubmitted int64
	jobsRejected  int64
	jobsDone      int64
	jobsDegraded  int64
	jobsFailed    int64

	retries         int64
	hedges          int64
	steals          int64
	degradedRetries int64

	workersJoined int64
	workersDown   int64

	cacheFetchHits   int64
	cacheFetchMisses int64
	cachePuts        int64
	cachePutRejects  int64

	scrapeErrors int64
}

func newCoordMetrics() *coordMetrics { return &coordMetrics{} }

func (m *coordMetrics) jobSubmitted()  { m.mu.Lock(); m.jobsSubmitted++; m.mu.Unlock() }
func (m *coordMetrics) jobRejected()   { m.mu.Lock(); m.jobsRejected++; m.mu.Unlock() }
func (m *coordMetrics) jobFailed()     { m.mu.Lock(); m.jobsFailed++; m.mu.Unlock() }
func (m *coordMetrics) retry()         { m.mu.Lock(); m.retries++; m.mu.Unlock() }
func (m *coordMetrics) hedge()         { m.mu.Lock(); m.hedges++; m.mu.Unlock() }
func (m *coordMetrics) steal()         { m.mu.Lock(); m.steals++; m.mu.Unlock() }
func (m *coordMetrics) degradedRetry() { m.mu.Lock(); m.degradedRetries++; m.mu.Unlock() }
func (m *coordMetrics) workerJoined()  { m.mu.Lock(); m.workersJoined++; m.mu.Unlock() }
func (m *coordMetrics) workerDown()    { m.mu.Lock(); m.workersDown++; m.mu.Unlock() }
func (m *coordMetrics) cacheFetchHit() { m.mu.Lock(); m.cacheFetchHits++; m.mu.Unlock() }
func (m *coordMetrics) cacheFetchMiss() {
	m.mu.Lock()
	m.cacheFetchMisses++
	m.mu.Unlock()
}
func (m *coordMetrics) cachePut()       { m.mu.Lock(); m.cachePuts++; m.mu.Unlock() }
func (m *coordMetrics) cachePutReject() { m.mu.Lock(); m.cachePutRejects++; m.mu.Unlock() }
func (m *coordMetrics) scrapeError()    { m.mu.Lock(); m.scrapeErrors++; m.mu.Unlock() }

func (m *coordMetrics) jobDone(degraded bool) {
	m.mu.Lock()
	m.jobsDone++
	if degraded {
		m.jobsDegraded++
	}
	m.mu.Unlock()
}

// render emits the coordinator's own Prometheus text: the fleet counters
// and gauges.
func (m *coordMetrics) render(pending, queueCap, liveWorkers int) string {
	m.mu.Lock()
	var b strings.Builder
	counter := func(name, help string, pairs ...[2]interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range pairs {
			if label, _ := p[0].(string); label != "" {
				fmt.Fprintf(&b, "%s{%s} %d\n", name, label, p[1])
			} else {
				fmt.Fprintf(&b, "%s %d\n", name, p[1])
			}
		}
	}
	counter("nchecker_fleet_jobs_submitted_total", "Scan jobs admitted by the coordinator.",
		[2]interface{}{"", m.jobsSubmitted})
	counter("nchecker_fleet_jobs_rejected_total", "Scan jobs rejected by the fleet queue bound.",
		[2]interface{}{"", m.jobsRejected})
	counter("nchecker_fleet_jobs_total", "Fleet jobs by terminal status.",
		[2]interface{}{`status="done"`, m.jobsDone},
		[2]interface{}{`status="failed"`, m.jobsFailed})
	counter("nchecker_fleet_jobs_degraded_total", "Fleet jobs finalized with a degraded result.",
		[2]interface{}{"", m.jobsDegraded})
	counter("nchecker_fleet_retries_total", "Dispatch attempts retried on another worker.",
		[2]interface{}{"", m.retries})
	counter("nchecker_fleet_degraded_retries_total", "Degraded results retried on another worker.",
		[2]interface{}{"", m.degradedRetries})
	counter("nchecker_fleet_hedges_total", "Slow dispatches speculatively duplicated.",
		[2]interface{}{"", m.hedges})
	counter("nchecker_fleet_steals_total", "Dispatches stolen by idle workers.",
		[2]interface{}{"", m.steals})
	counter("nchecker_fleet_workers_joined_total", "Worker registrations accepted.",
		[2]interface{}{"", m.workersJoined})
	counter("nchecker_fleet_workers_down_total", "Workers marked down after a failed probe.",
		[2]interface{}{"", m.workersDown})
	counter("nchecker_fleet_cache_fetch_total", "Cache hub fetches by outcome.",
		[2]interface{}{`outcome="hit"`, m.cacheFetchHits},
		[2]interface{}{`outcome="miss"`, m.cacheFetchMisses})
	counter("nchecker_fleet_cache_puts_total", "Cache hub pushes by outcome.",
		[2]interface{}{`outcome="accepted"`, m.cachePuts},
		[2]interface{}{`outcome="rejected"`, m.cachePutRejects})
	counter("nchecker_fleet_scrape_errors_total", "Worker metrics-state fetches that failed or did not decode.",
		[2]interface{}{"", m.scrapeErrors})
	m.mu.Unlock()

	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("nchecker_fleet_workers_live", "Workers currently accepting dispatches.", liveWorkers)
	gauge("nchecker_fleet_pending", "Dispatches queued fleet-wide.", pending)
	gauge("nchecker_fleet_queue_capacity", "Fleet admission queue bound.", queueCap)

	return b.String()
}
