package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apk"
	"repro/internal/core"
)

// This file is the targeted engine mode's corpus-scale differential: the
// demand-driven engine (DESIGN.md §9) must be observationally identical
// to the full engine on every app of the evaluation corpus — reports and
// stats, at any worker count, over both the in-memory and the lazy
// (container-decoding) scan paths. Only Diagnostics may differ.

// TestTargetedDifferentialFullCorpus scans all 285 corpus apps in both
// modes and requires per-app reports and stats to match exactly — the
// PR's headline acceptance criterion.
func TestTargetedDifferentialFullCorpus(t *testing.T) {
	full, err := ScanCorpusWith(Seed, core.Options{})
	if err != nil {
		t.Fatalf("full corpus scan: %v", err)
	}
	targeted, err := ScanCorpusWith(Seed, core.Options{Mode: core.ModeTargeted})
	if err != nil {
		t.Fatalf("targeted corpus scan: %v", err)
	}
	if n := targeted.IncompleteApps(); n > 0 {
		t.Fatalf("targeted corpus scan degraded %d apps: %v", n, targeted.FailedAppNames())
	}
	if len(targeted.Apps) != len(full.Apps) {
		t.Fatalf("app counts differ: full %d, targeted %d", len(full.Apps), len(targeted.Apps))
	}
	for i := range full.Apps {
		f, g := &full.Apps[i], &targeted.Apps[i]
		if f.Name != g.Name {
			t.Fatalf("app %d: name %q vs %q", i, f.Name, g.Name)
		}
		if !reflect.DeepEqual(f.Reports, g.Reports) {
			t.Errorf("app %s: targeted reports differ from full", f.Name)
		}
		if !reflect.DeepEqual(f.Stats, g.Stats) {
			t.Errorf("app %s: targeted stats differ from full", f.Name)
		}
	}
}

// TestTargetedDifferentialLazyPath routes the goldens through the byte
// container (apk.Encode → ScanBytes), which in targeted mode decodes
// lazily and materializes only the demanded classes — the path cmd/
// nchecker and the serve endpoint take. Reports and stats must match the
// in-memory full scan, and at least one golden must actually skip
// classes (or the lazy fast path silently degenerated to eager decoding).
func TestTargetedDifferentialLazyPath(t *testing.T) {
	apps := mustGoldens(t)
	fullScan := core.New()
	lazyScan := core.NewWithOptions(core.Options{Mode: core.ModeTargeted})
	skipped := 0
	for _, a := range apps {
		data, err := apk.Encode(a.App)
		if err != nil {
			t.Fatalf("%s: encode: %v", a.Name, err)
		}
		full := fullScan.ScanApp(a.App)
		lazy, err := lazyScan.ScanBytes(data)
		if err != nil {
			t.Fatalf("%s: targeted ScanBytes: %v", a.Name, err)
		}
		if lazy.Incomplete {
			t.Fatalf("%s: targeted scan degraded: %v", a.Name, lazy.Err())
		}
		if !reflect.DeepEqual(full.Reports, lazy.Reports) {
			t.Errorf("%s: lazy targeted reports differ from full", a.Name)
		}
		if !reflect.DeepEqual(full.Stats, lazy.Stats) {
			t.Errorf("%s: lazy targeted stats differ from full", a.Name)
		}
		skipped += lazy.Diagnostics.Targeted.ClassesSkipped
	}
	if skipped == 0 {
		t.Error("no golden skipped a single class; the lazy demand-driven path did no less work than full decoding")
	}
}

// TestTargetedDeterministicAcrossCorpusWorkers: the targeted corpus scan
// is schedule-independent — any worker count yields the same per-app
// reports as the single-worker run.
func TestTargetedDeterministicAcrossCorpusWorkers(t *testing.T) {
	base, err := ScanCorpusWith(Seed, core.Options{Workers: 1, Mode: core.ModeTargeted})
	if err != nil {
		t.Fatalf("corpus scan: %v", err)
	}
	for _, workers := range []int{4, 16} {
		cs, err := ScanCorpusWith(Seed, core.Options{Workers: workers, Mode: core.ModeTargeted})
		if err != nil {
			t.Fatalf("corpus scan (w=%d): %v", workers, err)
		}
		for i := range base.Apps {
			if !reflect.DeepEqual(base.Apps[i].Reports, cs.Apps[i].Reports) {
				t.Errorf("w=%d: app %s reports differ from single-worker run", workers, base.Apps[i].Name)
			}
		}
	}
}

// TestTargetedCorpusTimingsShowTargetedCounters: the -timings text of a
// targeted corpus scan carries the targeted counter line. The corpus
// aggregate leaves Diagnostics.Mode unset, so a line gated on the mode
// instead of on the counters never printed for `experiments -timings`.
func TestTargetedCorpusTimingsShowTargetedCounters(t *testing.T) {
	cs := ScanApps(mustGoldens(t), core.Options{Mode: core.ModeTargeted})
	r := cs.Diagnostics().Render()
	if !strings.Contains(r, "\n  targeted: ") || !strings.Contains(r, " closure_methods=") {
		t.Errorf("targeted corpus -timings lacks the targeted counter line:\n%s", r)
	}
}
