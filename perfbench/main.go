// Command perfbench is NChecker's benchmark. It scans the 285-app
// evaluation corpus through the public core, server, corpus and apk
// APIs, checks every verdict against the corpus generator's oracle, and
// prints one JSON line of metrics. See NOTES.md for the workloads and
// metrics; run it with
//
//	bash perfbench/run.sh --workload corpus-nocache --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/apimodel"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // working directory, created and removed by run
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "corpus-nocache, corpus-coldcache or serve-update")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus generator seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	cfg.work = filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it, and returns the result. Notes
// — the machine fingerprint, sample counts and the first failure — go
// to notes.
func run(cfg config, notes io.Writer) (res *result, err error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, work: cfg.work, reg: apimodel.NewRegistry()}
	defer func() {
		if terr := teardown(e); terr != nil && err == nil {
			res, err = nil, terr
		}
		if rerr := os.RemoveAll(cfg.work); rerr != nil && err == nil {
			res, err = nil, rerr
		}
	}()
	setup := make([]float64, setupReps)
	for rep := range setup {
		// Each repetition starts from a flushed filesystem with no server
		// and no snapshot; tearing the last one down is off the clock.
		if err := teardown(e); err != nil {
			return nil, err
		}
		flushFS()
		t0 := time.Now()
		if err := w.setup(e, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup[rep] = time.Since(t0).Seconds()
	}
	if err := referenceRenders(e.inputs); err != nil {
		return nil, err
	}
	fmt.Fprintf(notes, "# fingerprint %s\n", fingerprint(cfg.work))
	fmt.Fprintf(notes, "# set-up seconds per repetition: %.4f\n", setup)

	var t tally
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = traced(e, w, cfg.seconds, &t)
	} else {
		metrics, err = endToEnd(e, w, cfg.seconds, &t, notes)
		if metrics != nil {
			metrics["setup_s"] = metric{median(setup), "s"}
		}
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(notes, "# %s: %d scans, %d failed\n", w.name, t.attempted, t.failed)
	if t.firstErr != nil {
		fmt.Fprintf(notes, "# first failure: %v\n", t.firstErr)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// endToEndPlan is the pass plan users pay for on the workload.
func endToEndPlan(e *env, w *workload) passPlan {
	if w.endToEnd != nil {
		return w.endToEnd(e)
	}
	return directPlan(e, w)
}

// endToEnd measures the workload as users run it, with tracing off:
// nproc clients in a closed loop. Untimed warm-up passes come first.
func endToEnd(e *env, w *workload, budget time.Duration, t *tally, notes io.Writer) (map[string]metric, error) {
	plan := endToEndPlan(e, w)
	var warm tally
	if err := measure(&warm, e.inputs, runtime.NumCPU(), budget/10, plan); err != nil {
		return nil, err
	}
	t.merge(&warm)
	var m tally
	if err := measure(&m, e.inputs, runtime.NumCPU(), budget, plan); err != nil {
		return nil, err
	}
	t.merge(&m)
	fmt.Fprintf(notes, "# %d timed scans in %d passes after %d warm-up passes\n",
		m.attempted, len(m.passWalls), len(warm.passWalls))
	return map[string]metric{
		"apps_per_s":     {m.appsPerSecond(), "1/s"},
		"latency_p50_ms": {percentileMS(m.lats, 0.50), "ms"},
		"latency_p99_ms": {windowedP99MS(m.lats, len(e.inputs)), "ms"},
		"ok_frac":        {1 - float64(m.failed)/float64(m.attempted), "frac"},
		"peak_rss_mb":    {median(m.peakRSS), "MiB"},
	}, nil
}

// fingerprint describes the machine a result came from.
func fingerprint(cacheDir string) string {
	// A map of strings and ints always marshals.
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cache_fs":   fsType(cacheDir),
	})
	return string(b)
}
