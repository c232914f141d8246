// Command fleetsmoke is the CI smoke client for the scan fleet
// (scripts/check.sh drives it; no curl required in the container). It
// waits for the coordinator's -ready-file, checks that the expected
// number of workers registered, then scans every app container given on
// the command line through the fleet and writes the single-process CLI's
// exact stdout format — the `== path: N requests, M warnings ==` banner
// followed by the rendered reports, in argument order — to -out, so the
// gate can `cmp` it byte-for-byte against a direct `nchecker *.apk` run.
// Exit 0 on success, 1 with a message on any failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/testutil"
)

func main() {
	readyFile := flag.String("ready-file", "", "file the coordinator writes its bound address to")
	out := flag.String("out", "", "write the fleet scan output here (default stdout)")
	workers := flag.Int("workers", 2, "number of registered workers to wait for")
	timeout := flag.Duration("timeout", 120*time.Second, "overall deadline")
	flag.Parse()
	if *readyFile == "" || flag.NArg() == 0 {
		fail("usage: fleetsmoke -ready-file PATH [-out FILE] app.apk...")
	}
	deadline := time.Now().Add(*timeout)

	addr, err := testutil.WaitAddrFile(*readyFile, deadline)
	if err != nil {
		fail("%v", err)
	}
	client := &testutil.ScanClient{Base: "http://" + addr}
	fmt.Printf("fleetsmoke: coordinator at %s\n", client.Base)

	awaitWorkers(client.Base, *workers, deadline)

	// Submit everything first so the fleet has real queue depth — one job
	// at a time would let work stealing serve the whole run from a single
	// worker regardless of shard placement — then await in argument order
	// to keep the output byte-comparable to the CLI.
	ids := make([]string, flag.NArg())
	for i, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		job, err := client.Submit("?name="+path, data)
		if err != nil {
			fail("submitting %s: %v", path, err)
		}
		ids[i] = job.ID
	}
	var b strings.Builder
	byWorker := map[string]int{}
	for i, path := range flag.Args() {
		job, err := client.Await(ids[i], deadline)
		switch {
		case err != nil:
			fail("%v", err)
		case job.Status != "done":
			fail("job %s (%s) finished %q (%s), want done", job.ID, path, job.Status, job.Error)
		case job.Degraded:
			fail("job %s (%s) degraded: %s", job.ID, path, job.Error)
		case job.Worker == "":
			fail("job %s (%s) carries no worker attribution", job.ID, path)
		}
		byWorker[job.Worker]++
		fmt.Fprintf(&b, "== %s: %d requests, %d warnings ==\n", path, job.Requests, job.Warnings)
		b.WriteString(job.ReportText)
	}
	if len(byWorker) < 2 && len(flag.Args()) >= 8 {
		fail("sharding sent all %d apps to one worker: %v", len(flag.Args()), byWorker)
	}
	fmt.Printf("fleetsmoke: %d apps scanned across %d workers\n", flag.NArg(), len(byWorker))

	// The aggregated /metrics must account for every app exactly once: in
	// the coordinator's own counters and in the sum of the workers'
	// metrics. The smoke runs without hedging, so no scan runs twice.
	metrics, err := client.Metrics()
	if err != nil {
		fail("%v", err)
	}
	lines := map[string]bool{}
	for _, line := range strings.Split(metrics, "\n") {
		lines[line] = true
	}
	n := flag.NArg()
	for _, want := range []string{
		fmt.Sprintf(`nchecker_fleet_jobs_total{status="done"} %d`, n),
		fmt.Sprintf("nchecker_fleet_workers_live %d", *workers),
		fmt.Sprintf(`nchecker_jobs_total{status="done"} %d`, n),
		fmt.Sprintf("nchecker_scan_seconds_count %d", n),
	} {
		if !lines[want] {
			fail("/metrics lacks the line %q:\n%s", want, metrics)
		}
	}

	if *out == "" {
		fmt.Print(b.String())
	} else if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Println("fleetsmoke: ok")
}

// awaitWorkers polls GET /fleet until n live workers have registered.
func awaitWorkers(base string, n int, deadline time.Time) {
	for {
		live := 0
		resp, err := http.Get(base + "/fleet")
		if err == nil {
			var v struct {
				Workers []struct {
					Down bool `json:"down"`
				} `json:"workers"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&v); err == nil {
				for _, w := range v.Workers {
					if !w.Down {
						live++
					}
				}
			}
			resp.Body.Close()
		}
		if live >= n {
			return
		}
		if time.Now().After(deadline) {
			fail("only %d of %d workers registered before deadline", live, n)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetsmoke: "+format+"\n", args...)
	os.Exit(1)
}
