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
// entries; the store must neither serve nor accept them, and must age
// them out under its size bound.
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

// TestLeftoverSummariesEvictedFirst: the leftover counts against
// MaxBytes like any entry, and as the least recently used entry it is the
// first one LRU eviction removes once newer result entries fill the store.
func TestLeftoverSummariesEvictedFirst(t *testing.T) {
	leftover := readLeftover(t)
	dir := t.TempDir()
	path := filepath.Join(dir, leftoverName)
	writeRaw(t, path, leftover)
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("x"), 1000)
	entrySize := int64(len(EncodeEntry(KindResult, payload)))
	// Room for three result entries, not three plus the leftover.
	s := mustOpen(t, dir, Options{MaxBytes: 3*entrySize + int64(len(leftover))/2})
	evicted := 0
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = NewKey(KindResult, []byte{byte(i)})
		n, err := s.Put(keys[i], payload)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		evicted += n
	}
	if evicted != 1 {
		t.Fatalf("evicted %d entries, want 1 (the leftover)", evicted)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("leftover still on disk (stat err=%v)", err)
	}
	for i, k := range keys {
		if _, status := s.Get(k); status != StatusHit {
			t.Errorf("keys[%d] = %v, want hit", i, status)
		}
	}
}
