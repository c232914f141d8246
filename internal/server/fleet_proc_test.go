package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/apk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/testutil"
)

// Multi-process fleet integration suite: real `nchecker coord` and
// `nchecker serve -coord` OS processes on ephemeral ports, driven over
// HTTP with the full 285-app evaluation corpus. The differential oracle
// is the single-process scan: for every app, the fleet's report text must
// be byte-identical to an in-process core scan of the same bytes — across
// worker counts, across sharding, and across a worker killed mid-corpus.
// (The in-process coord_test.go covers the mechanisms; this file proves
// they survive real process boundaries, real sockets, and real SIGKILL.)

// fleetApp is one corpus member with its single-process expectations.
type fleetApp struct {
	name         string
	data         []byte
	wantReport   string
	wantWarnings int
	wantRequests int
}

// fleetCorpusState memoizes the encoded corpus and its single-process
// oracle across the tests in this file: one generation, one reference
// scan of all 285 apps.
var fleetCorpusState struct {
	sync.Once
	apps []fleetApp
	err  error
}

func fleetCorpus(t *testing.T) []fleetApp {
	t.Helper()
	fleetCorpusState.Do(func() {
		members, err := corpus.GenerateCorpus(experiments.Seed)
		if err != nil {
			fleetCorpusState.err = fmt.Errorf("generate corpus: %w", err)
			return
		}
		nc := core.New()
		apps := make([]fleetApp, 0, len(members))
		for _, m := range members {
			data, err := apk.Encode(m.App)
			if err != nil {
				fleetCorpusState.err = fmt.Errorf("encode %s: %w", m.Name, err)
				return
			}
			res := nc.ScanApp(m.App)
			if res.Incomplete {
				fleetCorpusState.err = fmt.Errorf("reference scan of %s degraded", m.Name)
				return
			}
			apps = append(apps, fleetApp{
				name:         m.Name,
				data:         data,
				wantReport:   report.RenderAll(res.Reports),
				wantWarnings: len(res.Reports),
				wantRequests: res.Stats.Requests,
			})
		}
		fleetCorpusState.apps = apps
	})
	if fleetCorpusState.err != nil {
		t.Fatal(fleetCorpusState.err)
	}
	if len(fleetCorpusState.apps) != corpus.CorpusSize {
		t.Fatalf("corpus has %d apps, want %d", len(fleetCorpusState.apps), corpus.CorpusSize)
	}
	return fleetCorpusState.apps
}

// spawnFleet starts one coordinator process and n worker processes, waits
// for every worker to register, and returns the procs. The queue and
// retention bounds are sized so a whole corpus can be in flight at once
// and every finished record survives until the test has read it.
func spawnFleet(t *testing.T, bin string, n int) (coord *testutil.Proc, workers []*testutil.Proc) {
	t.Helper()
	coord = testutil.SpawnServer(t, bin, "coord", "-queue", "400", "-retain", "400")
	for i := 0; i < n; i++ {
		workers = append(workers, testutil.SpawnServer(t, bin, "serve", "-coord", coord.URL, "-jobs", "2"))
	}
	awaitFleetSize(t, coord.URL, n)
	return coord, workers
}

// fleetView mirrors the GET /fleet response.
type fleetView struct {
	Workers []struct {
		URL  string `json:"url"`
		Down bool   `json:"down"`
	} `json:"workers"`
	Pending int `json:"pending"`
	Orphans int `json:"orphans"`
}

func getFleet(t *testing.T, base string) fleetView {
	t.Helper()
	resp, err := http.Get(base + "/fleet")
	if err != nil {
		t.Fatalf("GET /fleet: %v", err)
	}
	defer resp.Body.Close()
	var v fleetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET /fleet decode: %v", err)
	}
	return v
}

// awaitFleetSize polls /fleet until n live workers have registered
// (registration is asynchronous: workers join after their listener is
// up).
func awaitFleetSize(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		live := 0
		for _, w := range getFleet(t, base).Workers {
			if !w.Down {
				live++
			}
		}
		if live >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered before deadline", live, n)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// checkFleetJob asserts one fleet job against its single-process oracle.
func checkFleetJob(t *testing.T, app fleetApp, job testutil.JobView) {
	t.Helper()
	switch {
	case job.Status != "done":
		t.Errorf("%s: fleet job %s finished %q (%s), want done", app.name, job.ID, job.Status, job.Error)
	case job.Degraded:
		t.Errorf("%s: fleet job %s degraded: %s", app.name, job.ID, job.Error)
	case job.ReportText != app.wantReport:
		t.Errorf("%s: fleet report text differs from the single-process scan\nfleet (%d bytes):\n%s\nsingle-process (%d bytes):\n%s",
			app.name, len(job.ReportText), job.ReportText, len(app.wantReport), app.wantReport)
	case job.Warnings != app.wantWarnings || job.Requests != app.wantRequests:
		t.Errorf("%s: fleet counted %d warnings / %d requests, single-process counted %d / %d",
			app.name, job.Warnings, job.Requests, app.wantWarnings, app.wantRequests)
	}
}

// TestFleetProcessCorpusByteIdentical is the headline differential test:
// the full corpus scanned through a coordinator and three real worker
// processes must produce, for every app, byte-identical report text to a
// single-process scan — and the fleet must actually have spread the work.
// The fleet then drains cleanly on SIGTERM (exit 0), workers first.
func TestFleetProcessCorpusByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet and scans the full corpus")
	}
	apps := fleetCorpus(t)
	bin := testutil.BuildNchecker(t)
	coord, workers := spawnFleet(t, bin, 3)
	client := &testutil.ScanClient{Base: coord.URL}

	ids := make([]string, len(apps))
	for i, app := range apps {
		job, err := client.Submit("?name="+url.QueryEscape(app.name), app.data)
		if err != nil {
			t.Fatalf("submit %s: %v", app.name, err)
		}
		ids[i] = job.ID
	}
	deadline := time.Now().Add(3 * time.Minute)
	byWorker := map[string]int{}
	for i, app := range apps {
		job, err := client.Await(ids[i], deadline)
		if err != nil {
			t.Fatalf("await %s (%s): %v", ids[i], app.name, err)
		}
		checkFleetJob(t, app, job)
		byWorker[job.Worker]++
	}
	if len(byWorker) < 2 {
		t.Errorf("content-hash sharding sent the whole corpus to %d worker(s): %v", len(byWorker), byWorker)
	}

	// The aggregated /metrics must be well-formed and account for the
	// whole corpus across coordinator counters and summed worker scans.
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	parsed := parseExposition(t, metrics)
	for _, series := range []string{
		`nchecker_fleet_jobs_total{status="done"}`,
		`nchecker_jobs_total{status="done"}`,
		"nchecker_scan_seconds_count",
	} {
		if v, ok := parsed[series]; !ok || v < float64(len(apps)) {
			t.Errorf("aggregated /metrics %s = %v (present=%v), want >= %d", series, v, ok, len(apps))
		}
	}

	// Graceful shutdown: every worker and the coordinator exit 0 on
	// SIGTERM with nothing in flight.
	for _, w := range workers {
		if err := w.Drain(30 * time.Second); err != nil {
			t.Errorf("worker drain: %v", err)
		}
	}
	if err := coord.Drain(30 * time.Second); err != nil {
		t.Errorf("coordinator drain: %v", err)
	}
}

// TestFleetProcessWorkerKilledMidCorpus SIGKILLs one of three workers
// while the corpus is in flight. The coordinator must detect the death
// on its next dispatch, mark the worker down, requeue its work onto the
// survivors, and still complete every app byte-identical to the
// single-process oracle — the degraded-scan fault model of DESIGN.md §12
// exercised with a real process, not a stub.
func TestFleetProcessWorkerKilledMidCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet and scans the full corpus")
	}
	apps := fleetCorpus(t)
	bin := testutil.BuildNchecker(t)
	coord, workers := spawnFleet(t, bin, 3)
	client := &testutil.ScanClient{Base: coord.URL}

	// Submit a first slice, then kill a worker while the rest of the
	// corpus is still being submitted: rendezvous keeps sharding ~1/3 of
	// the remaining apps onto the dead process until its first failed
	// dispatch, so the death is guaranteed to be discovered mid-corpus.
	ids := make([]string, len(apps))
	submit := func(i int) {
		job, err := client.Submit("?name="+url.QueryEscape(apps[i].name), apps[i].data)
		if err != nil {
			t.Fatalf("submit %s: %v", apps[i].name, err)
		}
		ids[i] = job.ID
	}
	const killAfter = 100
	for i := 0; i < killAfter; i++ {
		submit(i)
	}
	workers[0].Kill()
	for i := killAfter; i < len(apps); i++ {
		submit(i)
	}

	deadline := time.Now().Add(3 * time.Minute)
	retried := 0
	for i, app := range apps {
		job, err := client.Await(ids[i], deadline)
		if err != nil {
			t.Fatalf("await %s (%s): %v", ids[i], app.name, err)
		}
		checkFleetJob(t, app, job)
		if job.Attempts > 1 {
			retried++
		}
		if job.Worker == "http://"+workers[0].Addr && job.Attempts == 1 {
			// Finishing on the killed worker in one attempt is only
			// possible for jobs that completed before the SIGKILL landed;
			// anything else would mean the coordinator trusted a corpse.
			continue
		}
	}
	fleet := getFleet(t, coord.URL)
	downSeen := false
	for _, w := range fleet.Workers {
		if w.URL == "http://"+workers[0].Addr && w.Down {
			downSeen = true
		}
	}
	if !downSeen {
		t.Errorf("killed worker %s not marked down in /fleet: %+v", workers[0].Addr, fleet)
	}
	if retried == 0 {
		t.Error("no job recorded a retry; the kill landed after the corpus drained — raise killAfter")
	}
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	parsed := parseExposition(t, metrics)
	if v, ok := parsed["nchecker_fleet_workers_down_total"]; !ok || v < 1 {
		t.Errorf("nchecker_fleet_workers_down_total = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := parsed[`nchecker_fleet_jobs_total{status="done"}`]; !ok || v != float64(len(apps)) {
		t.Errorf(`nchecker_fleet_jobs_total{status="done"} = %v (present=%v), want %d`, v, ok, len(apps))
	}
}
