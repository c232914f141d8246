package cachestore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

// segments returns the paths of the segment files in dir, oldest first.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// onlySegment returns the path of the one segment file in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	paths := segments(t, dir)
	if len(paths) != 1 {
		t.Fatalf("%d segment files in %s, want 1", len(paths), dir)
	}
	return paths[0]
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	key := NewKey(KindResult, []byte("app"), []byte("reg"), []byte("v1"))
	payload := []byte("hello cached world")

	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("Get on empty store = %v, want miss", status)
	}
	if _, err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, status := s.Get(key)
	if status != StatusHit {
		t.Fatalf("Get after Put = %v, want hit", status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get payload = %q, want %q", got, payload)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	s.Remove(key)
	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("Get after Remove = %v, want miss", status)
	}
}

// TestKeyInvalidation is the invalidation contract: flipping any single
// component of the cache key — the app digest, the registry fingerprint,
// the engine version, or the options fingerprint — must produce a
// distinct key, so a Put under the original key can never answer a probe
// for the changed configuration.
func TestKeyInvalidation(t *testing.T) {
	base := [4][]byte{
		[]byte("dex-digest-AAAA"),
		[]byte("registry-fingerprint"),
		[]byte("nchecker-engine/4"),
		[]byte("icc=false intra=false"),
	}
	cases := []struct {
		name string
		flip int
		with []byte
	}{
		{"app digest changed", 0, []byte("dex-digest-BBBB")},
		{"registry fingerprint changed", 1, []byte("registry-fingerprint'")},
		{"engine version bumped", 2, []byte("nchecker-engine/5")},
		{"options changed", 3, []byte("icc=true intra=false")},
	}

	s := mustOpen(t, t.TempDir(), Options{})
	baseKey := NewKey(KindResult, base[0], base[1], base[2], base[3])
	if _, err := s.Put(baseKey, []byte("cached result")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := base
			parts[tc.flip] = tc.with
			k := NewKey(KindResult, parts[0], parts[1], parts[2], parts[3])
			if k == baseKey {
				t.Fatalf("flipped key equals base key")
			}
			if _, status := s.Get(k); status != StatusMiss {
				t.Fatalf("Get with flipped component = %v, want miss", status)
			}
		})
	}
	// The kind byte partitions the keyspace too.
	if k := NewKey('s', base[0], base[1], base[2], base[3]); k == baseKey {
		t.Fatalf("foreign-kind key equals result key for identical parts")
	}
}

// TestKeyPartBoundaries: the length-prefixed part hashing must keep
// ("ab","c") distinct from ("a","bc") — concatenation alone would not.
func TestKeyPartBoundaries(t *testing.T) {
	k1 := NewKey(KindResult, []byte("ab"), []byte("c"))
	k2 := NewKey(KindResult, []byte("a"), []byte("bc"))
	if k1 == k2 {
		t.Fatalf("part boundaries not keyed: (ab,c) and (a,bc) collide")
	}
}

// TestCorruptEntryDetectedAndHealed damages the segment under a live
// store. Damage inside the record reads as corrupt and unlinks the
// segment, so later probes miss until a Put rewrites the entry. Garbage
// after the record is a torn tail: the record still serves, and the
// store appends its next record to a new segment rather than behind the
// garbage, where no reader would find it.
func TestCorruptEntryDetectedAndHealed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := NewKey(KindResult, []byte("app"))
	payload := []byte("some serialized result")

	corruptions := []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"truncated mid-payload", func(data []byte) []byte { return data[:len(data)-5] }},
		{"payload bit flipped", func(data []byte) []byte { data[len(data)-1] ^= 0x40; return data }},
		{"bad magic", func(data []byte) []byte { data[0] = 'X'; return data }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Put(key, payload); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := onlySegment(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read segment: %v", err)
			}
			writeRaw(t, path, tc.mangle(data))
			if _, status := s.Get(key); status != StatusCorrupt {
				t.Fatalf("Get on mangled record = %v, want corrupt", status)
			}
			// Corruption heals: the segment is unlinked, later probes miss.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt segment not removed (stat err=%v)", err)
			}
			if _, status := s.Get(key); status != StatusMiss {
				t.Fatalf("Get after heal = %v, want miss", status)
			}
		})
	}
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := s.Put(key, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		path := onlySegment(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		writeRaw(t, path, append(data, 0xFF))
		for _, st := range []*Store{s, mustOpen(t, dir, Options{})} {
			if got, status := st.Get(key); status != StatusHit || !bytes.Equal(got, payload) {
				t.Fatalf("Get with garbage after the record = %v, want hit", status)
			}
		}
		other := NewKey(KindResult, []byte("other"))
		if _, err := s.Put(other, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if n := len(segments(t, dir)); n != 2 {
			t.Fatalf("%d segments after a Put over a damaged segment, want 2 (a new one)", n)
		}
		if _, status := mustOpen(t, dir, Options{}).Get(other); status != StatusHit {
			t.Fatalf("fresh store Get(record written after the damage) = %v, want hit", status)
		}
	})
}

func writeRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// TestKindMismatchIsCorrupt: a record stored under a result key but
// carrying an envelope of another kind is corruption.
func TestKindMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	key := NewKey(KindResult, []byte("app"))
	// Forge a segment holding a well-formed record whose checksummed
	// envelope is of a foreign kind.
	writeSegment(t, dir, 1, recordFromEnvelope(key, EncodeEntry('s', []byte("payload"))))
	s := mustOpen(t, dir, Options{})
	if _, status := s.Get(key); status != StatusCorrupt {
		t.Fatalf("Get on kind-mismatched record = %v, want corrupt", status)
	}
}

// TestLRUEviction: with a budget this small every record gets its own
// segment, so segment eviction is entry eviction. A hit on the oldest
// entry promotes it to a new segment; the next overflowing Put then
// evicts the least recently used entry, not the oldest written.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	recSize := recordSize(len(payload))
	// Room for 3 records, not 4.
	s := mustOpen(t, dir, Options{MaxBytes: 3*recSize + recSize/2})

	keys := make([]Key, 4)
	for i := 0; i < 3; i++ {
		keys[i] = NewKey(KindResult, []byte{byte('a' + i)})
		if _, err := s.Put(keys[i], payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Touch key 0: the hit promotes it, so key 1 becomes the LRU victim.
	if _, status := s.Get(keys[0]); status != StatusHit {
		t.Fatalf("Get keys[0] = %v, want hit", status)
	}

	keys[3] = NewKey(KindResult, []byte{'d'})
	evicted, err := s.Put(keys[3], payload)
	if err != nil {
		t.Fatalf("Put over budget: %v", err)
	}
	if evicted == 0 {
		t.Fatalf("Put over budget evicted nothing")
	}
	if _, status := s.Get(keys[1]); status != StatusMiss {
		t.Fatalf("LRU victim keys[1] = %v, want miss (evicted)", status)
	}
	for _, i := range []int{0, 2, 3} {
		if _, status := s.Get(keys[i]); status != StatusHit {
			t.Fatalf("keys[%d] = %v, want hit (recently used / fresh)", i, status)
		}
	}
}

// TestOversizedPayloadSkipped: an entry larger than the whole budget is
// not written (writing it would immediately evict everything including
// itself).
func TestOversizedPayloadSkipped(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 128})
	key := NewKey(KindResult, []byte("big"))
	if _, err := s.Put(key, bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatalf("Put oversized: %v", err)
	}
	if n := len(segments(t, s.Dir())); n != 0 {
		t.Fatalf("oversized Put created %d segments", n)
	}
	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("oversized entry = %v, want miss (skipped)", status)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

// TestSharedIdentity: Shared returns one Store per directory, so
// concurrent scans in one process coordinate eviction.
func TestSharedIdentity(t *testing.T) {
	dir := t.TempDir()
	s1, err := Shared(dir, Options{})
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	s2, err := Shared(dir+string(filepath.Separator)+".", Options{}) // same dir, different spelling
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	if s1 != s2 {
		t.Fatalf("Shared returned distinct stores for one directory")
	}
	other, err := Shared(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	if other == s1 {
		t.Fatalf("Shared returned one store for distinct directories")
	}
}

// TestHotEntrySurvivesCoarseMtimeEviction: eviction order must not
// depend on file mtimes, which a coarse-granularity filesystem collapses
// into one tick and which anyone can reset. Segments are evicted in
// creation order (their names), and a burst of hits on the oldest entry
// promotes it into a new segment, so it survives. The test collapses
// every segment's mtime to one shared tick after the hits.
func TestHotEntrySurvivesCoarseMtimeEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	recSize := recordSize(len(payload))
	s := mustOpen(t, dir, Options{MaxBytes: 3*recSize + recSize/2})

	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = NewKey(KindResult, []byte{byte('a' + i)})
		if _, err := s.Put(keys[i], payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	hot := keys[0] // the oldest write

	for i := 0; i < 5; i++ {
		if _, status := s.Get(hot); status != StatusHit {
			t.Fatalf("Get hot = %v, want hit", status)
		}
	}
	tick := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range segments(t, dir) {
		if err := os.Chtimes(p, tick, tick); err != nil {
			t.Fatalf("chtimes: %v", err)
		}
	}

	// A fourth Put overflows the budget and must evict a cold entry, not
	// the hot one.
	if _, err := s.Put(NewKey(KindResult, []byte("fresh")), payload); err != nil {
		t.Fatalf("Put over budget: %v", err)
	}
	if _, status := s.Get(hot); status != StatusHit {
		t.Fatalf("hot entry = %v, want hit (evicted despite being hottest)", status)
	}
	misses := 0
	for _, k := range keys[1:] {
		if _, status := s.Get(k); status == StatusMiss {
			misses++
		}
	}
	if misses == 0 {
		t.Fatalf("no cold entry was evicted")
	}
}

// TestEvictionTieBreakDeterministic: segments this store never touched
// (written by other stores, as other processes would) with identical
// mtimes are evicted in a deterministic order — creation order, which is
// lexical name order.
func TestEvictionTieBreakDeterministic(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 1000)
	recSize := recordSize(len(payload))

	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = NewKey(KindResult, []byte{byte('p' + i)})
		if _, err := mustOpen(t, dir, Options{}).Put(keys[i], payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tick := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range segments(t, dir) {
		if err := os.Chtimes(p, tick, tick); err != nil {
			t.Fatalf("chtimes: %v", err)
		}
	}

	// Budget for three records: the eviction triggered by the first Put
	// must remove exactly the first-created segment.
	s := mustOpen(t, dir, Options{MaxBytes: 3*recSize + recSize/2})
	if _, err := s.Put(NewKey(KindResult, []byte("new")), payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, status := s.Get(keys[0]); status != StatusMiss {
		t.Fatalf("keys[0] = %v, want miss (deterministic tie-break victim)", status)
	}
	for _, i := range []int{1, 2} {
		if _, status := s.Get(keys[i]); status != StatusHit {
			t.Fatalf("keys[%d] = %v, want hit", i, status)
		}
	}
}

func TestFilenameShape(t *testing.T) {
	k := NewKey(KindResult, []byte("x"))
	name := k.Filename()
	if filepath.Base(name) != name {
		t.Fatalf("Filename %q contains path separators", name)
	}
	if want := 1 + 1 + 2*sha256.Size + len(".nce"); len(name) != want {
		t.Fatalf("Filename %q length = %d, want %d", name, len(name), want)
	}
}
