package main

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// verdict is what one scan returned. Scans keep their verdicts until the
// pass ends, so that checking them stays off the clock.
type verdict struct {
	in      *input
	lat     time.Duration // time to verdict
	reports []report.Report
	text    string        // rendered reports
	err     error         // scan error, Incomplete result, or non-200 response
	scan    time.Duration // serve-update: the server's own scan window
}

// scanVerdict scans one container the way the nchecker CLI does —
// ScanBytes, then RenderAll — and times both.
func scanVerdict(nc *core.Checker, in *input) verdict {
	t0 := time.Now()
	res, err := nc.ScanBytes(in.data)
	if err != nil {
		return verdict{in: in, lat: time.Since(t0), err: err}
	}
	text := report.RenderAll(res.Reports)
	return finished(in, time.Since(t0), res, text)
}

// finished is the verdict of a scan that returned a result; an
// Incomplete result is an error.
func finished(in *input, lat time.Duration, res *core.Result, text string) verdict {
	v := verdict{in: in, lat: lat, reports: res.Reports, text: text}
	if res.Incomplete {
		v.err = fmt.Errorf("incomplete scan: %v", res.Err())
	}
	return v
}

// check reports why a verdict is wrong, or nil. The per-cause warning
// counts must equal the generator's oracle, and the rendered text must
// be byte-identical to the cache-off reference when one is set.
func check(v verdict) error {
	if v.err != nil {
		return fmt.Errorf("%s: %w", v.in.name, v.err)
	}
	// Neither map holds zero counts, so equal maps mean equal counts.
	if got := report.Summarize(v.reports).ByCause; !maps.Equal(got, v.in.expect) {
		return fmt.Errorf("%s: warnings per cause %v, oracle expects %v", v.in.name, got, v.in.expect)
	}
	if v.in.ref != "" && v.text != v.in.ref {
		return fmt.Errorf("%s: rendered report differs from the cache-off reference", v.in.name)
	}
	return nil
}

// referenceRenders scans every input once with the cache off and one
// worker, checks the verdicts against the oracle, and records the
// rendered text as the reference every later scan must reproduce.
func referenceRenders(inputs []*input) error {
	nc := batchChecker("")
	for _, in := range inputs {
		if in.ref != "" {
			continue
		}
		v := scanVerdict(nc, in)
		if err := check(v); err != nil {
			return fmt.Errorf("reference scan: %w", err)
		}
		in.ref = v.text
	}
	return nil
}
