package cachestore

import (
	"bytes"
	"os"
	"sync"
	"testing"
)

// memReplicator is an in-memory Replicator for tests: a map plus call
// counters, safe for concurrent use like the interface demands.
type memReplicator struct {
	mu      sync.Mutex
	entries map[string][]byte
	fetches int
	pushes  int
}

func newMemReplicator() *memReplicator {
	return &memReplicator{entries: make(map[string][]byte)}
}

func (m *memReplicator) Fetch(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fetches++
	return m.entries[name]
}

func (m *memReplicator) Push(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pushes++
	m.entries[name] = append([]byte(nil), data...)
}

func TestParseFilenameRoundTrip(t *testing.T) {
	key := NewKey(KindResult, []byte("some identity"))
	if got, ok := ParseFilename(key.Filename()); !ok || got != key {
		t.Errorf("ParseFilename(%q) = %v %v, want %v", key.Filename(), got, ok, key)
	}
	for _, bad := range []string{
		"", "r-.nce", "x-" + NewKey(KindResult, nil).Filename()[2:], // unknown kind
		"r_" + NewKey(KindResult, nil).Filename()[2:],   // no dash
		NewKey(KindResult, nil).Filename()[:10],         // truncated
		"r-zz" + NewKey(KindResult, nil).Filename()[4:], // non-hex
		"../../etc/passwd", "r-deadbeef.nce",
	} {
		if _, ok := ParseFilename(bad); ok {
			t.Errorf("ParseFilename accepted %q", bad)
		}
	}
}

// TestReplicatedFetchServesAndCommitsLocally: a local miss falls back to
// the replicator; the fetched entry is served as a hit and committed so
// the next Get never touches the network.
func TestReplicatedFetchServesAndCommitsLocally(t *testing.T) {
	hub, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey(KindResult, []byte("app"))
	payload := []byte("scan result payload")
	if _, err := hub.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	hubData, ok := hub.GetEnvelope(key.Filename())
	if !ok {
		t.Fatal("hub GetEnvelope missed its own entry")
	}

	local, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	repl := newMemReplicator()
	repl.entries[key.Filename()] = hubData
	local.SetReplicator(repl)

	got, status := local.Get(key)
	if status != StatusHit || !bytes.Equal(got, payload) {
		t.Fatalf("replicated Get = %q %v, want hit with payload", got, status)
	}
	if repl.fetches != 1 {
		t.Fatalf("fetches = %d, want 1", repl.fetches)
	}
	// Second Get must be a pure local hit.
	got, status = local.Get(key)
	if status != StatusHit || !bytes.Equal(got, payload) {
		t.Fatalf("second Get = %q %v", got, status)
	}
	if repl.fetches != 1 {
		t.Errorf("second Get went remote (fetches = %d)", repl.fetches)
	}
}

// TestPutPushesToReplicator: a committed entry reaches the remote side,
// and a peer store wired to the same replicator hits it.
func TestPutPushesToReplicator(t *testing.T) {
	repl := newMemReplicator()
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.SetReplicator(repl)
	key := NewKey(KindResult, []byte("app"))
	payload := []byte("result")
	if _, err := a.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if repl.pushes != 1 {
		t.Fatalf("pushes = %d, want 1", repl.pushes)
	}

	b, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.SetReplicator(repl)
	got, status := b.Get(key)
	if status != StatusHit || !bytes.Equal(got, payload) {
		t.Fatalf("peer Get = %q %v, want replicated hit", got, status)
	}
}

// TestCorruptRemoteEntryIsAMiss: a damaged transfer must neither surface
// as a hit nor be committed locally.
func TestCorruptRemoteEntryIsAMiss(t *testing.T) {
	local, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey(KindResult, []byte("app"))
	repl := newMemReplicator()
	good := EncodeEntry(KindResult, []byte("payload"))
	for name, bad := range map[string][]byte{
		"truncated":     good[:len(good)-3],
		"bitflip":       append(append([]byte{}, good[:8]...), append([]byte{good[8] ^ 0x40}, good[9:]...)...),
		"wrong kind":    EncodeEntry('s', []byte("payload")),
		"empty":         {},
		"garbage bytes": []byte("not an envelope at all"),
	} {
		repl.entries[key.Filename()] = bad
		local.SetReplicator(repl)
		if _, status := local.Get(key); status != StatusMiss {
			t.Errorf("%s: status = %v, want miss", name, status)
		}
		if local.Len() != 0 {
			t.Errorf("%s: corrupt remote entry was committed locally", name)
		}
	}
}

// TestPutEnvelopeValidates: the hub write path rejects bad names and bad
// envelopes, and commits good ones readable through both surfaces.
func TestPutEnvelopeValidates(t *testing.T) {
	hub, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey(KindResult, []byte("app"))
	good := EncodeEntry(KindResult, []byte("payload"))

	if err := hub.PutEnvelope("../sneaky.nce", good); err == nil {
		t.Error("PutEnvelope accepted a path-traversal name")
	}
	if err := hub.PutEnvelope(key.Filename(), good[:4]); err == nil {
		t.Error("PutEnvelope accepted a truncated envelope")
	}
	if err := hub.PutEnvelope(key.Filename(), EncodeEntry('s', []byte("payload"))); err == nil {
		t.Error("PutEnvelope accepted a kind-mismatched envelope")
	}
	if hub.Len() != 0 {
		t.Fatalf("rejected envelopes left %d entries", hub.Len())
	}

	if err := hub.PutEnvelope(key.Filename(), good); err != nil {
		t.Fatalf("PutEnvelope: %v", err)
	}
	if got, status := hub.Get(key); status != StatusHit || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get after PutEnvelope = %q %v", got, status)
	}
	if _, ok := hub.GetEnvelope(key.Filename()); !ok {
		t.Fatal("GetEnvelope after PutEnvelope missed")
	}
}

// TestGetEnvelopeHealsCorruption: the hub read path unlinks the segment
// holding a damaged record instead of serving it — the same healing Get
// performs.
func TestGetEnvelopeHealsCorruption(t *testing.T) {
	dir := t.TempDir()
	hub, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey(KindResult, []byte("app"))
	if _, err := hub.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := hub.GetEnvelope(key.Filename()); ok {
		t.Fatal("GetEnvelope served a corrupt entry")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt segment not healed (still on disk)")
	}
}
