package checkers

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCounterTableComplete pins the counter table to the structs it
// reads, by reflection: every live int field of CacheStats, TargetedStats
// and ValidateStats has exactly one row, under its struct's layer (the
// retired SummariesSeeded and ClassDigests have none); each layer's rows
// are contiguous; names are unique snake_case; and Merge of two
// Diagnostics sums every counter field. A counter added to a struct
// without a row fails here instead of silently missing from Merge,
// -timings and /metrics.
func TestCounterTableComplete(t *testing.T) {
	retired := map[string]bool{"Cache.SummariesSeeded": true, "Cache.ClassDigests": true}
	groups := []string{"Cache", "Targeted", "Validate"}

	// fill gives every counter field of d a distinct value base+k and
	// returns the fields in order.
	fill := func(d *Diagnostics, base int) []string {
		var fields []string
		for _, g := range groups {
			gv := reflect.ValueOf(d).Elem().FieldByName(g)
			for i := 0; i < gv.NumField(); i++ {
				f := gv.Type().Field(i)
				if f.Type.Kind() != reflect.Int {
					t.Fatalf("%s.%s is %s, not int; extend the counter table and this test", g, f.Name, f.Type)
				}
				gv.Field(i).SetInt(int64(base + len(fields)))
				fields = append(fields, g+"."+f.Name)
			}
		}
		return fields
	}
	var a, b Diagnostics
	fields := fill(&a, 1)
	fill(&b, 1000)

	rowOf := map[string]string{} // field → row name
	names := map[string]bool{}
	layerDone := map[string]bool{} // layers whose run of rows has ended
	snakeCase := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	for i, c := range Counters {
		if i > 0 && Counters[i-1].Layer != c.Layer {
			layerDone[Counters[i-1].Layer] = true
		}
		if layerDone[c.Layer] {
			t.Errorf("counter %q: the rows of layer %q are not contiguous (Render prints one line per run)", c.Name, c.Layer)
		}
		if names[c.Name] {
			t.Errorf("counter name %q appears twice", c.Name)
		}
		names[c.Name] = true
		if !snakeCase.MatchString(c.Name) || c.Help == "" {
			t.Errorf("counter %q: want a snake_case name and a help string", c.Name)
		}
		v := *c.field(&a)
		if v < 1 || v > len(fields) {
			t.Errorf("counter %q reads no counter field", c.Name)
			continue
		}
		field := fields[v-1]
		if layer, _, _ := strings.Cut(field, "."); strings.ToLower(layer) != c.Layer {
			t.Errorf("counter %q reads %s but sits in layer %q", c.Name, field, c.Layer)
		}
		if prev, dup := rowOf[field]; dup {
			t.Errorf("counters %q and %q both read %s", prev, c.Name, field)
		}
		rowOf[field] = c.Name
	}
	for _, field := range fields {
		if _, has := rowOf[field]; has == retired[field] {
			t.Errorf("%s: has a row = %v, want %v", field, has, !retired[field])
		}
	}

	var sum Diagnostics
	sum.Merge(a)
	sum.Merge(b)
	for _, field := range fields {
		if retired[field] {
			continue
		}
		get := func(d *Diagnostics) int64 {
			g, f, _ := strings.Cut(field, ".")
			return reflect.ValueOf(d).Elem().FieldByName(g).FieldByName(f).Int()
		}
		if got, want := get(&sum), get(&a)+get(&b); got != want {
			t.Errorf("Merge: %s = %d, want %d", field, got, want)
		}
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
