package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runPass scans every input once from `clients` goroutines in a closed
// loop: each client takes the next unscanned input only after its
// previous verdict is back. It returns the verdicts in input order and
// the pass's wall time.
func runPass(inputs []*input, clients int, scan func(*input) verdict) ([]verdict, time.Duration) {
	out := make([]verdict, len(inputs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(inputs) {
					return
				}
				out[i] = scan(inputs[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// passPlan prepares one pass off the clock (fresh cache directory,
// flushed filesystem) and returns the scan function the pass uses.
type passPlan func() (func(*input) verdict, error)

// measure runs whole passes, at least one, until their summed wall time
// reaches budget. The plan runs before each pass's timer starts; each
// pass's verdicts are checked after its timer stops.
func measure(t *tally, inputs []*input, clients int, budget time.Duration, plan passPlan) error {
	start := t.wall
	for first := true; first || t.wall-start < budget; first = false {
		scan, err := plan()
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := resetPeakRSS(); err != nil {
			return fmt.Errorf("reset peak RSS: %w", err)
		}
		vs, wall := runPass(inputs, clients, scan)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		t.gcCycles += m1.NumGC - m0.NumGC
		t.peakRSS = append(t.peakRSS, rss)
		t.add(vs, wall)
	}
	return nil
}

// tally accumulates the verdicts of a run.
type tally struct {
	attempted, failed int
	lats              []time.Duration
	overheads         []time.Duration // round trip minus the server's scan window
	wall              time.Duration   // summed pass wall time
	passWalls         []time.Duration
	peakRSS           []float64 // MiB, per pass
	allocBytes        uint64    // heap bytes allocated during passes
	gcCycles          uint32    // GC cycles completed during passes
	firstErr          error
}

func (t *tally) add(vs []verdict, wall time.Duration) {
	t.wall += wall
	t.passWalls = append(t.passWalls, wall)
	for _, v := range vs {
		t.attempted++
		t.lats = append(t.lats, v.lat)
		if v.scan > 0 {
			t.overheads = append(t.overheads, v.lat-v.scan)
		}
		if err := check(v); err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
		}
	}
}

// merge folds another phase's verdict counts into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// appsPerSecond is the scans of one pass over the median pass wall time.
// Every pass scans the same inputs, so this is the median pass's
// throughput.
func (t *tally) appsPerSecond() float64 {
	walls := make([]float64, len(t.passWalls))
	for i, w := range t.passWalls {
		walls[i] = w.Seconds()
	}
	return float64(t.attempted) / float64(len(walls)) / median(walls)
}

// percentileMS is the nearest-rank q-quantile of ds in milliseconds, or
// 0 for no samples.
func percentileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(int(math.Ceil(q*float64(len(s))))-1, 0)
	return float64(s[i]) / float64(time.Millisecond)
}

// p99Window is the fewest scans a window needs for its p99 to have ten
// samples beyond it.
const p99Window = 1000

// windowedP99MS cuts the scans, in pass order, into windows of whole
// passes holding at least p99Window scans, and returns the median of the
// windows' p99s. A host hiccup that slows a few passes then moves one
// window's p99, not the run's. With fewer scans than one window it is
// the p99 of them all.
func windowedP99MS(lats []time.Duration, perPass int) float64 {
	size := (p99Window + perPass - 1) / perPass * perPass
	if len(lats) < size {
		return percentileMS(lats, 0.99)
	}
	var p99s []float64
	for lo := 0; lo+size <= len(lats); lo += size {
		p99s = append(p99s, percentileMS(lats[lo:lo+size], 0.99))
	}
	return median(p99s)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
