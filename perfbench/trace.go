package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
	"repro/internal/report"
)

// This file is the traced run. It times every layer from outside the
// program, with one worker so that layer times add up: apk decode and
// report rendering around their public calls, the pipeline stages from
// the core.Diagnostics every scan returns, and hierarchy and call graph
// by calling their public builders on the same apps in a separate pass.

// layerPass accumulates one traced pass.
type layerPass struct {
	apps                 int
	wall, decode, render time.Duration
	diag                 core.Diagnostics // merged over the pass's scans
	built                map[*input]bool  // inputs whose scan ran the build stage
	dir                  string           // the pass's cache directory
	files, bytes         int64            // first pass: cache directory walked after it
}

// tracedScan is scanVerdict split at the layer boundaries: decode (the
// half of ScanBytes before the pipeline), the pipeline, and rendering.
func tracedScan(nc *core.Checker, in *input, p *layerPass) verdict {
	t0 := time.Now()
	app, err := apk.Decode(in.data)
	t1 := time.Now()
	if err != nil {
		return verdict{in: in, lat: t1.Sub(t0), err: err}
	}
	res := nc.ScanAppContext(context.Background(), app)
	t2 := time.Now()
	text := report.RenderAll(res.Reports)
	t3 := time.Now()
	p.apps++
	p.wall += t3.Sub(t0)
	p.decode += t1.Sub(t0)
	p.render += t3.Sub(t2)
	p.diag.Merge(res.Diagnostics)
	if res.Diagnostics.Stage("build") != nil {
		p.built[in] = true
	}
	return finished(in, t3.Sub(t0), res, text)
}

// layerProbe holds the separately measured hierarchy and call-graph
// builds, and the allocations of apk decode.
type layerProbe struct {
	passes         int
	hier, cg       time.Duration // summed over passes
	decodeAllocs   uint64        // per pass
	classes, edges int           // per pass, over built inputs
	containerBytes int           // per pass
}

// probeLayers calls apk.Decode, hierarchy.New and callgraph.BuildWith on
// every input, building the program the way the scan pipeline does.
// Hierarchy and call graph are built only for inputs whose traced scan
// built them (a result-cache hit builds neither).
func probeLayers(inputs []*input, built map[*input]bool, budget time.Duration) (*layerProbe, error) {
	p := &layerProbe{}
	start := time.Now()
	for p.passes == 0 || time.Since(start) < budget {
		first := p.passes == 0
		p.passes++
		for _, in := range inputs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			app, err := apk.Decode(in.data)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("decode %s: %w", in.name, err)
			}
			if first {
				p.decodeAllocs += m1.Mallocs - m0.Mallocs
				p.containerBytes += len(in.data)
			}
			if !built[in] {
				continue
			}
			prog := jimple.NewProgram()
			prog.Merge(app.Program)
			prog.Merge(android.Framework())
			prog.Merge(apimodel.Stubs())
			t0 := time.Now()
			h := hierarchy.New(prog)
			t1 := time.Now()
			cg := callgraph.BuildWith(h, app.Manifest, callgraph.Options{})
			t2 := time.Now()
			p.hier += t1.Sub(t0)
			p.cg += t2.Sub(t1)
			if first {
				p.classes += prog.NumClasses()
				p.edges += cg.NumEdges()
			}
		}
	}
	return p, nil
}

// traced runs the per-layer trace of a workload in three phases sharing
// the time budget:
//
//	A  the workload's own end-to-end passes, untraced: allocation and GC
//	   per pass, and the server's overhead on serve-update;
//	B  one worker and one client, alternating untraced passes (the
//	   baseline for tracing overhead) with passes traced at the layer
//	   boundaries;
//	C  the hierarchy and call-graph probes.
func traced(e *env, w *workload, budget time.Duration, t *tally) (map[string]metric, error) {
	var a, untraced, tr tally
	if err := measure(&a, e.inputs, runtime.NumCPU(), budget*3/10, endToEndPlan(e, w)); err != nil {
		return nil, err
	}
	var passes []*layerPass
	tracedPlan := func() (func(*input) verdict, error) {
		dir, err := w.cacheDir(e)
		if err != nil {
			return nil, err
		}
		nc := batchChecker(dir)
		p := &layerPass{dir: dir, built: make(map[*input]bool)}
		passes = append(passes, p)
		return func(in *input) verdict { return tracedScan(nc, in, p) }, nil
	}
	for untraced.wall+tr.wall < budget*6/10 || len(passes) == 0 {
		if err := measure(&untraced, e.inputs, 1, 0, directPlan(e, w)); err != nil {
			return nil, err
		}
		if err := measure(&tr, e.inputs, 1, 0, tracedPlan); err != nil {
			return nil, err
		}
		if first := passes[0]; len(passes) == 1 && first.dir != "" {
			var err error
			if first.files, first.bytes, err = diskUsage(first.dir); err != nil {
				return nil, err
			}
		}
	}
	probe, err := probeLayers(e.inputs, passes[0].built, budget/10)
	if err != nil {
		return nil, err
	}
	for _, o := range []*tally{&a, &untraced, &tr} {
		t.merge(o)
	}
	return layerMetrics(&a, &untraced, &tr, passes, probe), nil
}

// layerMetrics turns the phases into the per-layer metrics. Times are
// mean milliseconds per scanned app (zero where the layer did not run);
// counts are per corpus pass, from the first traced pass.
func layerMetrics(a, untraced, tr *tally, passes []*layerPass, probe *layerProbe) map[string]metric {
	var all layerPass
	for _, p := range passes {
		all.apps += p.apps
		all.wall += p.wall
		all.decode += p.decode
		all.render += p.render
		all.diag.Merge(p.diag)
	}
	first := passes[0]
	perApp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(all.apps) }
	stage := func(name string) time.Duration {
		if s := all.diag.Stage(name); s != nil {
			return s.Duration
		}
		return 0
	}
	// The probe builds every built input once per probe pass; scale its
	// time to the traced run's passes.
	scale := func(d time.Duration) time.Duration {
		return d * time.Duration(len(passes)) / time.Duration(probe.passes)
	}
	hier, cg := scale(probe.hier), scale(probe.cg)

	m := map[string]metric{}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, num, den int) { m[name] = metric{frac(num, den), "ratio"} }

	ms("apk.decode.ms", perApp(all.decode))
	count("apk.decode.allocs", float64(probe.decodeAllocs))
	count("apk.bytes", float64(probe.containerBytes))
	ms("hierarchy.build.ms", perApp(hier))
	count("hierarchy.classes", float64(probe.classes))
	ms("callgraph.build.ms", perApp(cg))
	count("callgraph.edges", float64(probe.edges))

	fc := first.diag.Cache
	ms("dataflow.summaries.ms", perApp(stage("summaries")))
	count("dataflow.summaries.methods", float64(fc.SummariesComputed))
	count("dataflow.summaries.fixpoint_iters", float64(fc.SummaryFixpointIters))

	ms("checkers.discover.ms", perApp(stage("discover")))
	count("checkers.sites", float64(first.diag.Sites))
	for f := 1; f <= checkers.NumCheckerFamilies; f++ {
		name := checkers.StageOfFamily(f)
		ms("checkers."+name+".ms", perApp(stage(name)))
	}
	ratio("checkers.artifact_hit_ratio",
		fc.CFGHits()+fc.ReachDefsHits()+fc.ConstPropRequests-fc.ConstPropComputed,
		fc.CFGRequests+fc.ReachDefsRequests+fc.ConstPropRequests)

	ms("cachestore.write.ms", perApp(stage("cachewrite")))
	count("cachestore.puts", float64(fc.StorePuts))
	count("cachestore.entries_on_disk", float64(first.files))
	count("cachestore.bytes_on_disk", float64(first.bytes))
	count("cachestore.class_digests", float64(fc.ClassDigests))
	ms("cachestore.probe.ms", perApp(stage("cacheprobe")))
	count("cachestore.hits", float64(fc.StoreHits))
	count("cachestore.misses", float64(fc.StoreMisses))
	ratio("cachestore.hit_ratio", fc.StoreHits, fc.StoreProbes)
	ms("cachestore.seed.ms", perApp(stage("cacheseed")))
	count("cachestore.summaries_seeded", float64(fc.SummariesSeeded))
	// Hit scans build no summaries, so the methods summarized over the
	// whole pass are the summaries the missed apps needed.
	ratio("cachestore.seed_ratio", fc.SummariesSeeded, fc.SummariesComputed)

	ms("report.render.ms", perApp(all.render))
	ms("server.overhead_ms", percentileMS(a.overheads, 0.5))
	m["go.alloc_mb"] = metric{float64(a.allocBytes) / float64(len(a.passWalls)) / (1 << 20), "MiB"}
	m["go.gc_cycles"] = metric{float64(a.gcCycles) / float64(len(a.passWalls)), "count"}
	// Layer time: every pipeline stage except build, which the hierarchy
	// and call-graph probes stand in for.
	attributed := all.decode + all.render + hier + cg
	for _, s := range all.diag.Stages {
		if s.Name != "build" {
			attributed += s.Duration
		}
	}
	m["trace.unattributed_frac"] = metric{1 - float64(attributed)/float64(all.wall), "frac"}
	m["trace.overhead_frac"] = metric{1 - tr.appsPerSecond()/untraced.appsPerSecond(), "frac"}
	return m
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
