package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/apimodel"
	"repro/internal/core"
)

// env is one workload's set-up state.
type env struct {
	seed   int64
	work   string // working directory holding every cache directory
	reg    *apimodel.Registry
	inputs []*input // what each pass scans: v1, or v2 for serve-update

	coldDirs int         // corpus-coldcache: cache directories made so far
	snap     string      // serve-update: the v1 cache snapshot
	live     string      // serve-update: the server's cache directory
	srv      *liveServer // serve-update
}

// workload is one of the benchmark's input sets.
type workload struct {
	name string
	// setup builds the inputs and any cache or server state; it is what
	// setup_s times.
	setup func(e *env, rep int) error
	// cacheDir prepares, off the clock, the cache directory a pass starts
	// from, and returns it; "" means the cache is off.
	cacheDir func(e *env) (string, error)
	// endToEnd is the pass plan users pay for; nil means direct scans
	// from the app-level pool.
	endToEnd func(e *env) passPlan
}

var workloads = []workload{
	{
		name:     "corpus-nocache",
		setup:    setupBatch,
		cacheDir: func(*env) (string, error) { return "", nil },
	},
	{
		name:     "corpus-coldcache",
		setup:    setupBatch,
		cacheDir: freshColdDir,
	},
	{
		name:     "serve-update",
		setup:    setupServe,
		cacheDir: restoreSnapshot,
		endToEnd: func(e *env) passPlan {
			return func() (func(*input) verdict, error) {
				if _, err := restoreSnapshot(e); err != nil {
					return nil, err
				}
				return e.srv.post, nil
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// directPlan scans each pass through a batch Checker on the pass's
// cache directory.
func directPlan(e *env, w *workload) passPlan {
	return func() (func(*input) verdict, error) {
		dir, err := w.cacheDir(e)
		if err != nil {
			return nil, err
		}
		nc := batchChecker(dir)
		return func(in *input) verdict { return scanVerdict(nc, in) }, nil
	}
}

// batchChecker is a Checker as nchecker batch mode makes one for an
// app-level pool: one pipeline worker per scan, and the cache in rw mode
// when cacheDir is set.
func batchChecker(cacheDir string) *core.Checker {
	opts := core.Options{Workers: 1}
	if cacheDir != "" {
		opts.CacheDir, opts.CacheMode = cacheDir, core.CacheRW
	}
	return core.NewWithOptions(opts)
}

func setupBatch(e *env, _ int) error {
	v1, _, err := corpusInputs(e.reg, e.seed, false)
	e.inputs = v1
	return err
}

// setupServe generates v1 and v2, scans v1 into a fresh snapshot
// directory, and starts the server on its own cache directory.
func setupServe(e *env, rep int) error {
	v1, v2, err := corpusInputs(e.reg, e.seed, true)
	if err != nil {
		return err
	}
	e.inputs = v2
	e.snap = filepath.Join(e.work, fmt.Sprintf("snap-%d", rep))
	nc := batchChecker(e.snap)
	vs, _ := runPass(v1, runtime.NumCPU(), func(in *input) verdict { return scanVerdict(nc, in) })
	for _, v := range vs {
		if err := check(v); err != nil {
			return fmt.Errorf("populate v1 cache: %w", err)
		}
	}
	flushFS()
	e.live = filepath.Join(e.work, "live")
	e.srv, err = startServer(e.live)
	return err
}

// teardown stops the server and removes the snapshot, if any.
func teardown(e *env) error {
	if e.srv != nil {
		if err := e.srv.stop(); err != nil {
			return fmt.Errorf("stop server: %w", err)
		}
		e.srv = nil
	}
	if e.snap != "" {
		if err := os.RemoveAll(e.snap); err != nil {
			return err
		}
		e.snap = ""
	}
	return nil
}

// freshColdDir removes the previous pass's cache directory, creates an
// empty one under a new name, and flushes the filesystem.
func freshColdDir(e *env) (string, error) {
	dir := func(n int) string { return filepath.Join(e.work, fmt.Sprintf("cold-%d", n)) }
	if err := os.RemoveAll(dir(e.coldDirs)); err != nil {
		return "", err
	}
	e.coldDirs++
	if err := os.MkdirAll(dir(e.coldDirs), 0o755); err != nil {
		return "", err
	}
	flushFS()
	return dir(e.coldDirs), nil
}

// restoreSnapshot replaces the server's cache directory with a fresh
// directory holding the v1 snapshot's entries, and flushes the
// filesystem. Entries are hard links: the cache never writes an entry in
// place (it commits by rename and removes by unlink), so the snapshot
// stays intact.
func restoreSnapshot(e *env) (string, error) {
	if err := os.RemoveAll(e.live); err != nil {
		return "", err
	}
	if err := os.MkdirAll(e.live, 0o755); err != nil {
		return "", err
	}
	ents, err := os.ReadDir(e.snap)
	if err != nil {
		return "", err
	}
	for _, ent := range ents {
		if err := os.Link(filepath.Join(e.snap, ent.Name()), filepath.Join(e.live, ent.Name())); err != nil {
			return "", err
		}
	}
	flushFS()
	return e.live, nil
}

// diskUsage counts the regular files under dir and their bytes.
func diskUsage(dir string) (files, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}
