package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/apimodel"
	"repro/internal/report"
)

// A scan whose warnings disagree with the oracle, or whose rendered text
// differs from the cache-off reference, must count as failed.
func TestWrongExpectationCountsAsFailed(t *testing.T) {
	v1, _, err := corpusInputs(apimodel.NewRegistry(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	inputs := v1[:4]
	if err := referenceRenders(inputs); err != nil {
		t.Fatal(err)
	}
	e := &env{inputs: inputs}
	w, err := findWorkload("corpus-nocache")
	if err != nil {
		t.Fatal(err)
	}

	var good tally
	if err := measure(&good, inputs, 2, 0, directPlan(e, w)); err != nil {
		t.Fatal(err)
	}
	if good.attempted != len(inputs) || good.failed != 0 {
		t.Fatalf("true expectations: %d attempted, %d failed (%v)", good.attempted, good.failed, good.firstErr)
	}

	wrongCount := *inputs[1]
	wrongCount.expect = map[report.Cause]int{report.CauseNoTimeout: 1}
	for c, n := range inputs[1].expect {
		wrongCount.expect[c] += n
	}
	wrongText := *inputs[2]
	wrongText.ref += "\n"
	bad := []*input{inputs[0], &wrongCount, &wrongText, inputs[3]}
	var got tally
	if err := measure(&got, bad, 2, 0, directPlan(e, w)); err != nil {
		t.Fatal(err)
	}
	if got.attempted != len(bad) || got.failed != 2 {
		t.Fatalf("wrong expectations: %d attempted, %d failed, want %d and 2", got.attempted, got.failed, len(bad))
	}
	if !strings.Contains(got.firstErr.Error(), wrongCount.name) {
		t.Errorf("first failure %v does not name %s", got.firstErr, wrongCount.name)
	}
}

// countMetrics are the traced counts that must repeat exactly for a seed.
var countMetrics = []string{
	"apk.bytes", "hierarchy.classes", "callgraph.edges",
	"checkers.sites", "dataflow.summaries.methods",
	"cachestore.puts", "cachestore.hits", "cachestore.misses",
	"cachestore.summaries_seeded", "cachestore.entries_on_disk", "cachestore.bytes_on_disk",
}

func TestCountsRepeatAndSecondSeedPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	traceRun := func(t *testing.T, workload string, seed int64) *result {
		t.Helper()
		res, err := run(config{workload: workload, seed: seed, seconds: time.Millisecond,
			trace: true, work: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("seed %d: correct=%v, %d of %d scans failed", seed, res.Correct, res.Failed, res.Attempted)
		}
		return res
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, second := traceRun(t, w.name, 1), traceRun(t, w.name, 1)
			for _, name := range countMetrics {
				a, ok := first.Metrics[name]
				if !ok {
					t.Fatalf("no %s metric", name)
				}
				if b := second.Metrics[name]; a != b {
					t.Errorf("%s: %v then %v with one seed", name, a.Value, b.Value)
				}
			}
			traceRun(t, w.name, 2)
		})
	}
}

func TestPercentiles(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		var ds []time.Duration
		for _, v := range vs {
			ds = append(ds, time.Duration(v)*time.Millisecond)
		}
		return ds
	}
	var hundred []int
	for v := 100; v >= 1; v-- {
		hundred = append(hundred, v)
	}
	if got := percentileMS(ms(hundred...), 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentileMS(ms(hundred...), 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	// 500 scans per pass: windows of two passes. A spike confined to
	// one window moves that window's p99 only.
	lats := make([]time.Duration, 3000)
	for i := range lats {
		lats[i] = time.Duration(1+i%10) * time.Millisecond
	}
	for i := 0; i < 100; i++ {
		lats[i] = time.Second
	}
	if got := windowedP99MS(lats, 500); got != 10 {
		t.Errorf("windowed p99 = %v, want 10", got)
	}
}
