package checkers

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/jimple"
	"repro/internal/report"
)

// cacheTestSrc is a small interprocedural app: an activity whose entry
// point routes a request through a helper.
const cacheTestSrc = `class t.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    staticinvoke t.Main.submit(com.turbomanage.httpclient.BasicHttpClient)void c
    return
  }
  method static submit(com.turbomanage.httpclient.BasicHttpClient)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = param 0 com.turbomanage.httpclient.BasicHttpClient
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func cacheTestApp(t *testing.T, src string) *apk.App {
	t.Helper()
	prog := jimple.MustParse(src)
	if err := prog.Validate(); err != nil {
		t.Fatalf("test app invalid: %v", err)
	}
	man := &android.Manifest{Package: "t", Activities: []string{"t.Main"}}
	man.Normalize()
	return &apk.App{Manifest: man, Program: prog}
}

func assertSameFindings(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Errorf("%s: reports differ:\n got %+v\nwant %+v", label, got.Reports, want.Reports)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats differ:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if got.Incomplete != want.Incomplete {
		t.Errorf("%s: Incomplete = %v, want %v", label, got.Incomplete, want.Incomplete)
	}
}

func TestCacheHitShortCircuits(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}

	cold := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	if cold.Incomplete {
		t.Fatalf("cold scan incomplete: %v", cold.Diagnostics.Errors)
	}
	cc := cold.Diagnostics.Cache
	if cc.StoreHits != 0 || cc.StorePuts == 0 {
		t.Fatalf("cold scan store stats: %d hits, %d puts; want 0 hits and >0 puts", cc.StoreHits, cc.StorePuts)
	}
	if cold.Diagnostics.Stage("discover") == nil {
		t.Fatalf("cold scan did not run discovery")
	}
	if len(cold.Reports) == 0 {
		t.Fatalf("cold scan found no warnings; the test app should trigger several")
	}

	// A second scan of an identical (separately constructed) app must be
	// answered entirely from the cache.
	warm := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	assertSameFindings(t, warm, cold, "warm vs cold")
	wc := warm.Diagnostics.Cache
	if wc.StoreHits != 1 || wc.StoreMisses != 0 {
		t.Fatalf("warm scan store stats: %+d hits, %d misses; want 1 hit, 0 misses", wc.StoreHits, wc.StoreMisses)
	}
	if warm.Diagnostics.Stage("discover") != nil || warm.Diagnostics.Stage("build") != nil {
		t.Fatalf("warm scan ran analysis stages despite a full hit: %+v", warm.Diagnostics.Stages)
	}
	if warm.Diagnostics.Stage("cacheprobe") == nil {
		t.Fatalf("warm scan missing cacheprobe stage")
	}
	// Diagnostics scale numbers are restored from the entry.
	if warm.Diagnostics.AppMethods != cold.Diagnostics.AppMethods || warm.Diagnostics.Sites != cold.Diagnostics.Sites {
		t.Fatalf("warm diagnostics scale = %d methods/%d sites, want %d/%d",
			warm.Diagnostics.AppMethods, warm.Diagnostics.Sites,
			cold.Diagnostics.AppMethods, cold.Diagnostics.Sites)
	}
}

func TestCacheReadOnlyNeverWrites(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()

	off := Analyze(cacheTestApp(t, cacheTestSrc), reg, Options{Workers: 1})
	ro := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: dir, CacheMode: CacheRO})
	assertSameFindings(t, ro, off, "ro vs off")
	rc := ro.Diagnostics.Cache
	if rc.StoreProbes == 0 {
		t.Fatalf("ro scan never probed the store")
	}
	if rc.StorePuts != 0 {
		t.Fatalf("ro scan wrote %d entries", rc.StorePuts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read cache dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("ro scan left %d files in the cache directory", len(entries))
	}
}

// TestIncompleteScanNeverPoisons: a scan degraded by a mid-pipeline panic
// must not write anything — a later clean scan would otherwise be
// answered with partial results forever.
func TestIncompleteScanNeverPoisons(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	baseline := Analyze(cacheTestApp(t, cacheTestSrc), reg, Options{Workers: 1})

	crashOpts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}
	crashOpts.unitHook = func(stage string, unit int) {
		if stage == "discover" {
			panic("injected discovery failure")
		}
	}
	crashed := Analyze(cacheTestApp(t, cacheTestSrc), reg, crashOpts)
	if !crashed.Incomplete {
		t.Fatalf("injected panic did not degrade the scan")
	}
	if n := crashed.Diagnostics.Cache.StorePuts; n != 0 {
		t.Fatalf("degraded scan wrote %d cache entries", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read cache dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("degraded scan left %d files in the cache directory", len(entries))
	}

	// The next clean rw scan misses, computes fresh, and matches the
	// cache-off baseline; the one after that hits and still matches.
	clean := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW})
	assertSameFindings(t, clean, baseline, "clean-after-crash vs baseline")
	warm := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW})
	assertSameFindings(t, warm, baseline, "warm-after-crash vs baseline")
	if warm.Diagnostics.Cache.StoreHits == 0 {
		t.Fatalf("post-crash warm scan did not hit")
	}
}

// TestCorruptEntriesFallBackCold: damaging every cached file on disk must
// read as a cold scan with corrupt counters — same findings, no failure —
// and the rw rescan heals the cache.
func TestCorruptEntriesFallBackCold(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}

	cold := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold scan cached nothing (err=%v)", err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		// Truncate to simulate a writer killed mid-commit.
		if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
			t.Fatalf("truncate %s: %v", p, err)
		}
	}

	resc := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	assertSameFindings(t, resc, cold, "rescan-over-corruption vs cold")
	if resc.Diagnostics.Cache.StoreCorrupt == 0 {
		t.Fatalf("rescan did not count the corrupt entries")
	}
	if resc.Incomplete {
		t.Fatalf("corruption degraded the scan: %v", resc.Diagnostics.Errors)
	}

	healed := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	assertSameFindings(t, healed, cold, "healed vs cold")
	if healed.Diagnostics.Cache.StoreHits == 0 || healed.Diagnostics.Cache.StoreCorrupt != 0 {
		t.Fatalf("cache did not heal: %+v", healed.Diagnostics.Cache)
	}
}

// extraClass turns cacheTestSrc into a changed v2 of the same app.
const extraClass = `
class t.Extra extends java.lang.Object {
  method poke()void {
    return
  }
}`

// TestChangedAppRescansCold: adding a class to an app changes its bytes,
// so v1's result entry cannot answer v2. The v2 scan probes once, misses,
// runs the full analysis, writes its own result entry, and matches an
// uncached scan exactly.
func TestChangedAppRescansCold(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}

	v1 := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	if v1.Diagnostics.Cache.StorePuts == 0 {
		t.Fatalf("v1 scan cached nothing")
	}

	v2src := cacheTestSrc + extraClass
	baseline := Analyze(cacheTestApp(t, v2src), reg, Options{Workers: 1})
	v2 := Analyze(cacheTestApp(t, v2src), reg, opts)
	assertSameFindings(t, v2, baseline, "v2 over v1's cache vs uncached v2")
	c := v2.Diagnostics.Cache
	if c.StoreProbes != 1 || c.StoreMisses != 1 || c.StorePuts != 1 || c.StoreHits != 0 {
		t.Fatalf("v2 store stats: %d probes, %d misses, %d puts, %d hits; want 1, 1, 1, 0",
			c.StoreProbes, c.StoreMisses, c.StorePuts, c.StoreHits)
	}
	if v2.Diagnostics.Stage("discover") == nil {
		t.Fatalf("v2 scan short-circuited despite changed app bytes")
	}
}

// TestCacheDisabledByDefault: without CacheDir, or with a directory under
// -cache-mode=off, the pipeline never touches the store and diagnostics
// stay all-zero.
func TestCacheDisabledByDefault(t *testing.T) {
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 1, CacheDir: t.TempDir(), CacheMode: CacheOff},
	} {
		res := Analyze(cacheTestApp(t, cacheTestSrc), apimodel.NewRegistry(), opts)
		c := res.Diagnostics.Cache
		if c.StoreProbes != 0 || c.StorePuts != 0 || c.StoreHits != 0 {
			t.Fatalf("cache-off scan (dir=%q) touched the store: %+v", opts.CacheDir, c)
		}
		if res.Diagnostics.Stage("cacheprobe") != nil {
			t.Fatalf("cache-off scan (dir=%q) ran the cacheprobe stage", opts.CacheDir)
		}
	}
}

// TestNoDigestWorkWithCacheOff: the app content digest is only needed for
// the result key, so a cache-off scan never takes it. Digest() memoizes,
// so whether a scan took it shows after the fact: swap the app's program
// and see whether Digest() still returns the pre-swap value.
func TestNoDigestWorkWithCacheOff(t *testing.T) {
	reg := apimodel.NewRegistry()
	swapped, err := cacheTestApp(t, cacheTestSrc+extraClass).Digest()
	if err != nil {
		t.Fatal(err)
	}
	digestTaken := func(opts Options) (bool, CacheStats) {
		app := cacheTestApp(t, cacheTestSrc)
		res := Analyze(app, reg, opts)
		app.Program = cacheTestApp(t, cacheTestSrc+extraClass).Program
		d, err := app.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d != swapped, res.Diagnostics.Cache
	}
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 1, CacheDir: t.TempDir(), CacheMode: CacheOff},
	} {
		taken, c := digestTaken(opts)
		if taken {
			t.Errorf("cache-off scan (dir=%q) computed the app digest", opts.CacheDir)
		}
		if c.StoreProbes != 0 {
			t.Errorf("cache-off scan (dir=%q) probed the store %d times, want 0", opts.CacheDir, c.StoreProbes)
		}
	}
	taken, c := digestTaken(Options{Workers: 1, CacheDir: t.TempDir(), CacheMode: CacheRW})
	if !taken || c.StoreProbes != 1 {
		t.Fatalf("rw scan: digest taken=%v, %d probes; want the digest and 1 probe (the check above is dead)", taken, c.StoreProbes)
	}
}

// leftoverSummaryFile is a per-class summary entry for cacheTestSrc,
// written by the engine that still had the summary cache. Cache
// directories from that engine hold such entries next to result entries.
const leftoverSummaryFile = "s-d84222752509ea408fad7ae43f340fb965e23d61a5d5f5215a81bc0446054e41.nce"

// TestLeftoverSummariesIgnored: a scan over a directory holding a
// leftover summary entry plus newer result entries never reads the
// leftover. Its report is byte-identical to a cold scan, and the leftover
// stays on disk, untouched, for LRU eviction.
func TestLeftoverSummariesIgnored(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	leftover, err := os.ReadFile(filepath.Join("..", "cachestore", "testdata", "leftover", leftoverSummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, leftoverSummaryFile), leftover, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}
	if other := Analyze(cacheTestApp(t, cacheTestSrc+extraClass), reg, opts); other.Diagnostics.Cache.StorePuts != 1 {
		t.Fatalf("writing a newer result entry: %+v", other.Diagnostics.Cache)
	}

	cold := Analyze(cacheTestApp(t, cacheTestSrc), reg, Options{Workers: 1})
	for _, label := range []string{"first scan", "warm rescan"} {
		res := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
		assertSameFindings(t, res, cold, label+" over leftover vs cold")
		if got, want := report.RenderAll(res.Reports), report.RenderAll(cold.Reports); got != want {
			t.Errorf("%s: rendered report differs from a cold scan:\n got %s\nwant %s", label, got, want)
		}
		if c := res.Diagnostics.Cache; c.StoreProbes != 1 || c.StoreCorrupt != 0 {
			t.Errorf("%s: %d probes, %d corrupt; want 1 probe and no corruption", label, c.StoreProbes, c.StoreCorrupt)
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, leftoverSummaryFile)); err != nil || string(got) != string(leftover) {
		t.Errorf("leftover entry was touched (err=%v)", err)
	}
}

// TestResultKeyPinned pins the result-entry filename of a fixed app,
// registry and option set. A drift here makes every existing warm cache
// miss: it must come with an intended EngineVersion or key change.
func TestResultKeyPinned(t *testing.T) {
	const want = "r-f2e47e6165f47cb0261a4ebd6a6b7243dac08d8c4054c34e66ea2d2cdec10988.nce"
	digest, err := cacheTestApp(t, cacheTestSrc).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got := resultCacheKey(digest, apimodel.NewRegistry(), Options{}).Filename(); got != want {
		t.Fatalf("result key = %s, want %s", got, want)
	}
}

func TestParseCacheMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CacheMode
		ok   bool
	}{
		{"off", CacheOff, true},
		{"ro", CacheRO, true},
		{"rw", CacheRW, true},
		{"", CacheOff, false},
		{"readwrite", CacheOff, false},
	} {
		got, err := ParseCacheMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCacheMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("CacheMode(%q).String() = %q", tc.in, got.String())
		}
	}
}
