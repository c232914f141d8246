package server

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// parseExposition checks a /metrics body against the parts of the
// Prometheus text format 0.0.4 this package's renderers promise, and
// returns every sample's value keyed by its series identity: the metric
// name plus its label block exactly as exposed. It fails t on a malformed
// metric name or value, on a sample whose family has not declared its
// TYPE earlier in the text, and on a series that appears twice.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	series := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", i+1, line)
		}
		id := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value: %q", i+1, line)
		}
		name, labels, hasLabels := strings.Cut(id, "{")
		if !validMetricName(name) || hasLabels && !strings.HasSuffix(labels, "}") {
			t.Fatalf("line %d: bad series %q", i+1, id)
		}
		if !typedFamily(types, name) {
			t.Fatalf("line %d: sample %s precedes its family's TYPE line", i+1, name)
		}
		if _, dup := series[id]; dup {
			t.Fatalf("line %d: duplicate series %s", i+1, id)
		}
		series[id] = v
	}
	return series
}

// typedFamily reports whether the sample name belongs to a family whose
// TYPE was declared: its own, or a histogram's for a _bucket, _sum or
// _count sample.
func typedFamily(types map[string]string, name string) bool {
	if types[name] != "" {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return true
		}
	}
	return false
}

func validMetricName(name string) bool {
	for i, r := range name {
		letter := r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return name != ""
}

// seriesSet renders the sorted series identities of a parsed exposition,
// one a line: the shape the series goldens pin.
func seriesSet(series map[string]float64) string {
	ids := make([]string, 0, len(series))
	for id := range series {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, "\n") + "\n"
}

// checkGolden compares got with testdata/name, rewriting the file first
// when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("series set drifted from %s.\n"+
			"If the change is intentional, regenerate with -update and call it out in review.\n%s",
			path, diffLines(string(want), got))
	}
}
