package cachestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// leftoverName is a per-class summary entry written by the engine that
// still had the summary cache (a real one, kept in testdata/leftover).
// Cache directories from that engine hold such entries next to result
// entry files; the store must neither serve nor accept them, and
// unlinks them before anything else.
const leftoverName = "s-d84222752509ea408fad7ae43f340fb965e23d61a5d5f5215a81bc0446054e41.nce"

func readLeftover(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "leftover", leftoverName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLeftoverSummariesRejectedByHub: the cache hub refuses the
// leftover's name, whether a worker asks for it or pushes it.
func TestLeftoverSummariesRejectedByHub(t *testing.T) {
	leftover := readLeftover(t)
	if _, _, err := DecodeEntry(leftover); err == nil {
		t.Fatal("leftover summary envelope decoded")
	}
	if _, ok := ParseFilename(leftoverName); ok {
		t.Fatalf("ParseFilename accepted %q", leftoverName)
	}
	dir := t.TempDir()
	hub := mustOpen(t, dir, Options{})
	writeRaw(t, filepath.Join(dir, leftoverName), leftover)
	if _, ok := hub.GetEnvelope(leftoverName); ok {
		t.Error("GetEnvelope served the leftover")
	}
	if err := hub.PutEnvelope(leftoverName, leftover); err == nil {
		t.Error("PutEnvelope accepted the leftover")
	}
}

// TestLegacyEntryFilesNeverRead: a result entry file the one-file-per-
// entry engine wrote (r-<hex>.nce, the bare envelope) is not read: the
// first probe after an upgrade misses once, and the rewritten entry
// hits from a segment.
func TestLegacyEntryFilesNeverRead(t *testing.T) {
	dir := t.TempDir()
	key := NewKey(KindResult, []byte("app"))
	payload := []byte("result from the older engine")
	writeRaw(t, filepath.Join(dir, key.Filename()), EncodeEntry(KindResult, payload))
	s := mustOpen(t, dir, Options{})
	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("Get over a legacy entry file = %v, want miss", status)
	}
	if _, ok := s.GetEnvelope(key.Filename()); ok {
		t.Fatal("GetEnvelope served a legacy entry file")
	}
	if _, err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, status := s.Get(key); status != StatusHit || !bytes.Equal(got, payload) {
		t.Fatalf("Get after the rewrite = %v, want hit", status)
	}
}

// TestLeftoverSummariesEvictedFirst: files from older engines — the
// leftover summary entry, a per-entry result file and a crashed writer's
// temp file — are never read, so the store's first commit unlinks them
// all, whatever the bound and their mtimes. One that appears later (an
// older engine still writing) counts against MaxBytes and goes before
// any segment.
func TestLeftoverSummariesEvictedFirst(t *testing.T) {
	leftover := readLeftover(t)
	dir := t.TempDir()
	legacy := []string{
		filepath.Join(dir, leftoverName),
		filepath.Join(dir, NewKey(KindResult, []byte("legacy")).Filename()),
		filepath.Join(dir, "put-123456.tmp"),
	}
	writeRaw(t, legacy[0], leftover)
	writeRaw(t, legacy[1], EncodeEntry(KindResult, bytes.Repeat([]byte("r"), 600)))
	writeRaw(t, legacy[2], bytes.Repeat([]byte("t"), 100))
	future := time.Now().Add(time.Hour)
	for _, p := range legacy {
		if err := os.Chtimes(p, future, future); err != nil {
			t.Fatal(err)
		}
	}

	payload := bytes.Repeat([]byte("x"), 1000)
	recSize := recordSize(len(payload))
	// Room for three records, each in a segment of its own.
	s := mustOpen(t, dir, Options{MaxBytes: 3*recSize + 50})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = NewKey(KindResult, []byte{byte(i)})
	}
	put := func(k Key) int {
		n, err := s.Put(k, payload)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		return n
	}
	if n := put(keys[0]); n != len(legacy) {
		t.Fatalf("first commit unlinked %d files, want %d (the legacy files)", n, len(legacy))
	}
	for _, p := range legacy {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("legacy file %s still on disk (stat err=%v)", filepath.Base(p), err)
		}
	}
	if n := put(keys[1]) + put(keys[2]); n != 0 {
		t.Fatalf("commits within the bound unlinked %d files", n)
	}

	late := filepath.Join(dir, NewKey(KindResult, []byte("late")).Filename())
	writeRaw(t, late, EncodeEntry(KindResult, bytes.Repeat([]byte("l"), 600)))
	if err := os.Chtimes(late, future, future); err != nil {
		t.Fatal(err)
	}
	// The late file plus a fourth record pass the bound: the late file
	// goes first, then the oldest segment (keys[0]'s).
	if n := put(keys[3]); n != 2 {
		t.Fatalf("over-bound commit unlinked %d files, want 2 (the late legacy file, then the oldest segment)", n)
	}
	if _, err := os.Stat(late); !os.IsNotExist(err) {
		t.Fatalf("late legacy file still on disk (stat err=%v)", err)
	}
	for i, k := range keys {
		want := StatusHit
		if i == 0 {
			want = StatusMiss
		}
		if _, status := s.Get(k); status != want {
			t.Errorf("keys[%d] = %v, want %v", i, status, want)
		}
	}
}
