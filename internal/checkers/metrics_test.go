package checkers

import (
	"reflect"
	"testing"
	"time"
)

// TestCacheStatsCounterMapComplete pins the exporter contract with
// reflection: every live CacheStats field must appear in CounterMap, and
// with a value distinguishable from every other field's. Adding a counter
// to CacheStats without exporting it fails here. The retired, always-zero
// fields must not be exported.
func TestCacheStatsCounterMapComplete(t *testing.T) {
	retired := map[string]bool{"SummariesSeeded": true, "ClassDigests": true}
	var c CacheStats
	v := reflect.ValueOf(&c).Elem()
	typ := v.Type()
	// Give every field a distinct value so a map entry wired to the wrong
	// field is caught, not just a missing one.
	live := make(map[int64]bool)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Int {
			t.Fatalf("CacheStats.%s is %s, not int; extend CounterMap and this test",
				typ.Field(i).Name, typ.Field(i).Type)
		}
		v.Field(i).SetInt(int64(100 + i))
		if !retired[typ.Field(i).Name] {
			live[int64(100+i)] = true
		}
	}
	m := c.CounterMap()
	if len(m) != len(live) {
		t.Fatalf("CounterMap has %d entries, CacheStats has %d live fields: a counter is missing from the export",
			len(m), len(live))
	}
	seen := make(map[int64]string, len(m))
	for name, val := range m {
		if !live[val] {
			t.Errorf("CounterMap[%q] = %d: not wired to any live CacheStats field", name, val)
		}
		if prev, dup := seen[val]; dup {
			t.Errorf("CounterMap[%q] and CounterMap[%q] read the same field", name, prev)
		}
		seen[val] = name
	}
}

// TestMetricsSnapshotFlattensDiagnostics: the snapshot must carry the
// stage timings, totals, and error count the /metrics endpoint exports.
func TestMetricsSnapshotFlattensDiagnostics(t *testing.T) {
	d := Diagnostics{
		Total:      1500 * time.Millisecond,
		AppMethods: 7,
		Sites:      3,
		Errors:     []ScanError{{Kind: ErrDeadline, Stage: "discover", Unit: -1}},
	}
	d.add("build", 200*time.Millisecond, 7, 0)
	d.add("settings", 100*time.Millisecond, 3, 2)
	d.Cache.StoreHits = 4

	snap := d.MetricsSnapshot()
	if snap.TotalSeconds != 1.5 || snap.AppMethods != 7 || snap.Sites != 3 {
		t.Errorf("totals wrong: %+v", snap)
	}
	if snap.ScanErrors != 1 {
		t.Errorf("ScanErrors = %d, want 1", snap.ScanErrors)
	}
	if snap.Reports != 2 {
		t.Errorf("Reports = %d, want 2", snap.Reports)
	}
	if len(snap.Stages) != 2 || snap.Stages[0].Name != "build" || snap.Stages[1].Name != "settings" {
		t.Fatalf("stages wrong: %+v", snap.Stages)
	}
	if snap.Stages[1].Seconds != 0.1 || snap.Stages[1].Items != 3 || snap.Stages[1].Reports != 2 {
		t.Errorf("settings stage wrong: %+v", snap.Stages[1])
	}
	if snap.Counters["store_hits"] != 4 {
		t.Errorf("Counters[store_hits] = %d, want 4", snap.Counters["store_hits"])
	}
}
