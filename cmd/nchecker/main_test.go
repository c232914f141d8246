package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/jimple"
)

// TestFoldOutcomesPrecedence is the exit-code contract, table-driven over
// file orderings: error(2) > warnings(1) > clean(0) must hold no matter
// which order the files were named in.
func TestFoldOutcomesPrecedence(t *testing.T) {
	mk := func(warnings, failed bool) outcome {
		return outcome{warnings: warnings, failed: failed}
	}
	clean := mk(false, false)
	warn := mk(true, false)
	fail := mk(false, true)
	warnAndFail := mk(true, true) // a degraded scan that still found warnings

	cases := []struct {
		name     string
		outcomes []outcome
		want     int
	}{
		{"no files", nil, exitClean},
		{"all clean", []outcome{clean, clean}, exitClean},
		{"single warning", []outcome{warn}, exitWarnings},
		{"single error", []outcome{fail}, exitError},
		{"warnings then error", []outcome{warn, fail}, exitError},
		{"error then warnings", []outcome{fail, warn}, exitError},
		{"clean then warnings then clean", []outcome{clean, warn, clean}, exitWarnings},
		{"error sandwiched by clean", []outcome{clean, fail, clean}, exitError},
		{"warnings and error in one file", []outcome{warnAndFail}, exitError},
		{"error first then only clean", []outcome{fail, clean, clean}, exitError},
		{"warnings everywhere, one error", []outcome{warn, warn, fail, warn}, exitError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs strings.Builder
			if got := foldOutcomes(tc.outcomes, &out, &errs); got != tc.want {
				t.Errorf("foldOutcomes = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestFoldOutcomesFlushesInOrder: buffered per-file output must print in
// argument order, stdout and stderr separately.
func TestFoldOutcomesFlushesInOrder(t *testing.T) {
	outcomes := make([]outcome, 3)
	for i := range outcomes {
		outcomes[i].out.WriteString(string(rune('a' + i)))
		outcomes[i].errs.WriteString(string(rune('x' + i)))
	}
	var out, errs strings.Builder
	foldOutcomes(outcomes, &out, &errs)
	if out.String() != "abc" {
		t.Errorf("stdout order = %q, want abc", out.String())
	}
	if errs.String() != "xyz" {
		t.Errorf("stderr order = %q, want xyz", errs.String())
	}
}

// writeFixtureApp writes the canonical buggy fixture to dir and returns
// its path.
func writeFixtureApp(t *testing.T, dir, name string) string {
	t.Helper()
	prog := jimple.MustParse(`class demo.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://example.com"
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    return
  }
}`)
	man := &android.Manifest{Package: "demo", Activities: []string{"demo.Main"}}
	man.Normalize()
	path := filepath.Join(dir, name)
	if err := apk.WriteFile(path, &apk.App{Manifest: man, Program: prog}); err != nil {
		t.Fatalf("write fixture: %v", err)
	}
	return path
}

// TestBatchJSONStdoutIsPureJSON is the regression test for the -json
// output contract: with -stats and -timings on and a degraded file in the
// batch, stdout must still be nothing but JSON documents — the banner,
// stats, timings, and the degraded notice all belong on stderr. (Pre-fix,
// -stats and -timings wrote to stdout and corrupted the stream.)
func TestBatchJSONStdoutIsPureJSON(t *testing.T) {
	dir := t.TempDir()
	good := writeFixtureApp(t, dir, "good.apk")
	degraded := writeFixtureApp(t, dir, "degraded.apk")

	var out, errs strings.Builder
	// -timeout 1ns degrades every scan; scanning the "good" file twice
	// with distinct names keeps this a real batch. Use one worker so the
	// degraded file is deterministic — both are degraded here anyway.
	code := runScan([]string{
		"-json", "-stats", "-timings", "-workers", "1", "-timeout", "1ns",
		good, degraded,
	}, &out, &errs)
	if code != exitError {
		t.Fatalf("degraded batch exit = %d, want %d", code, exitError)
	}

	dec := json.NewDecoder(strings.NewReader(out.String()))
	docs := 0
	for dec.More() {
		var doc any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("stdout is not a pure JSON stream (doc %d): %v\nstdout:\n%s", docs, err, out.String())
		}
		docs++
	}
	if docs != 2 {
		t.Errorf("stdout carries %d JSON documents, want 2\nstdout:\n%s", docs, out.String())
	}
	for _, diag := range []string{"== ", "stats: ", "pipeline: "} {
		if strings.Contains(out.String(), diag) {
			t.Errorf("diagnostic %q leaked onto -json stdout", diag)
		}
		if !strings.Contains(errs.String(), diag) {
			t.Errorf("diagnostic %q missing from stderr", diag)
		}
	}
}

// TestTextStdoutUnchangedByDiagnostics: in text mode -stats and -timings
// are diagnostics on stderr, so stdout — the banners and reports — is
// byte-identical with and without them.
func TestTextStdoutUnchangedByDiagnostics(t *testing.T) {
	dir := t.TempDir()
	a := writeFixtureApp(t, dir, "a.apk")
	b := writeFixtureApp(t, dir, "b.apk")

	var plain, plainErrs, diag, diagErrs strings.Builder
	plainCode := runScan([]string{"-workers", "1", a, b}, &plain, &plainErrs)
	diagCode := runScan([]string{"-workers", "1", "-timings", "-stats", a, b}, &diag, &diagErrs)
	if plainCode != exitWarnings || diagCode != exitWarnings {
		t.Fatalf("exit codes = %d, %d, want %d for both", plainCode, diagCode, exitWarnings)
	}
	if diag.String() != plain.String() {
		t.Errorf("-timings -stats changed stdout:\n--- without ---\n%s\n--- with ---\n%s", plain.String(), diag.String())
	}
	if !strings.Contains(plain.String(), "== "+a+": ") {
		t.Errorf("stdout lacks the per-file banner:\n%s", plain.String())
	}
	for _, want := range []string{"stats: ", "pipeline: "} {
		if got := strings.Count(diagErrs.String(), want); got != 2 {
			t.Errorf("stderr carries %q %d times, want once per file\nstderr:\n%s", want, got, diagErrs.String())
		}
	}
}

// TestDegradedNoticeExactlyOncePerFile: a degraded batch -json scan emits
// its stderr notice exactly once per degraded file.
func TestDegradedNoticeExactlyOncePerFile(t *testing.T) {
	dir := t.TempDir()
	a := writeFixtureApp(t, dir, "a.apk")
	b := writeFixtureApp(t, dir, "b.apk")

	var out, errs strings.Builder
	code := runScan([]string{"-json", "-timeout", "1ns", a, b}, &out, &errs)
	if code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
	for _, path := range []string{a, b} {
		notice := "nchecker: " + path + ": degraded scan"
		if got := strings.Count(errs.String(), notice); got != 1 {
			t.Errorf("degraded notice for %s appears %d times, want exactly 1\nstderr:\n%s", path, got, errs.String())
		}
	}
}

// TestScanExitCodes drives runScan end to end over real files: clean vs
// warnings vs unreadable, in both orders.
func TestScanExitCodes(t *testing.T) {
	dir := t.TempDir()
	warnApp := writeFixtureApp(t, dir, "warn.apk")
	missing := filepath.Join(dir, "missing.apk")

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"warnings only", []string{warnApp}, exitWarnings},
		{"missing file only", []string{missing}, exitError},
		{"warnings then missing", []string{warnApp, missing}, exitError},
		{"missing then warnings", []string{missing, warnApp}, exitError},
		{"no args is usage error", nil, exitError},
		{"bad cache mode", []string{"-cache-mode", "sideways", warnApp}, exitError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs strings.Builder
			if got := runScan(tc.args, &out, &errs); got != tc.want {
				t.Errorf("runScan(%v) = %d, want %d\nstderr:\n%s", tc.args, got, tc.want, errs.String())
			}
		})
	}
}

// TestSingleFileTextOutputUnchanged: the text mode still prints the banner
// then the rendered reports on stdout (the byte-level contract nchecker
// serve's report text is checked against).
func TestSingleFileTextOutputUnchanged(t *testing.T) {
	dir := t.TempDir()
	app := writeFixtureApp(t, dir, "app.apk")
	var out, errs strings.Builder
	code := runScan([]string{app}, &out, &errs)
	if code != exitWarnings {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitWarnings, errs.String())
	}
	if !strings.HasPrefix(out.String(), "== "+app+": ") {
		t.Errorf("banner missing from stdout:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NPD Information") {
		t.Errorf("rendered reports missing from stdout")
	}
	if errs.Len() != 0 {
		t.Errorf("clean text scan wrote to stderr: %q", errs.String())
	}
}

// TestServeFlagValidation: bad serve flags fail fast with exit 2 and
// never bind a socket.
func TestServeFlagValidation(t *testing.T) {
	var errs strings.Builder
	if got := runServe([]string{"-cache-mode", "sideways"}, &errs); got != exitError {
		t.Errorf("bad cache mode: runServe = %d, want %d", got, exitError)
	}
	errs.Reset()
	if got := runServe([]string{"stray-arg"}, &errs); got != exitError {
		t.Errorf("stray arg: runServe = %d, want %d", got, exitError)
	}
	errs.Reset()
	if got := runServe([]string{"-addr", "999.999.999.999:0"}, &errs); got != exitError {
		t.Errorf("unbindable addr: runServe = %d, want %d", got, exitError)
	}
}

// Guard against the timeout constant drifting: the degraded-batch tests
// rely on 1ns expiring before any stage runs.
var _ = time.Nanosecond
