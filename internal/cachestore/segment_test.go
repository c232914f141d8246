package cachestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSegment writes data as a segment file named for the given
// creation stamp.
func writeSegment(t *testing.T, dir string, stamp int, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s%016x-%08x%s", segPrefix, stamp, 0, segExt))
	writeRaw(t, path, data)
	return path
}

// TestRecordKeyBitFlips flips every bit of a record's key and length
// header, both in a segment a fresh store scans and under a store that
// already indexed the record. Each flip must read as a miss or as
// corrupt; no flip may serve the payload under any key, neither the
// original nor the one the flipped bits spell.
func TestRecordKeyBitFlips(t *testing.T) {
	key := NewKey(KindResult, []byte("app"))
	payload := []byte("payload bound to its key")
	good := encodeRecord(key, payload)
	for bit := 8 * 4; bit < 8*recordLenEnd; bit++ {
		rec := append([]byte(nil), good...)
		rec[bit/8] ^= 1 << (bit % 8)
		var flipped Key
		flipped.Kind = rec[4]
		copy(flipped.Sum[:], rec[5:recordKeyEnd])

		// A fresh store scans the damaged segment.
		dir := t.TempDir()
		path := writeSegment(t, dir, 1, rec)
		s := mustOpen(t, dir, Options{})
		for _, k := range []Key{key, flipped} {
			if _, status := s.Get(k); status == StatusHit {
				t.Fatalf("bit %d: fresh store served a hit for a damaged record header", bit)
			}
		}

		// A store that indexed the record before the flip.
		writeRaw(t, path, good)
		s = mustOpen(t, dir, Options{})
		if s.Len() != 1 {
			t.Fatalf("bit %d: the intact record was not indexed", bit)
		}
		writeRaw(t, path, rec)
		for _, k := range []Key{key, flipped} {
			if _, status := s.Get(k); status == StatusHit {
				t.Fatalf("bit %d: indexed store served a hit for a damaged record header", bit)
			}
		}
	}
}

// TestTornTailEndsSegment: a segment cut short inside its last record —
// a writer killed mid-append — reads as ending before that record. The
// earlier records still hit, the torn one misses (it is not corrupt),
// and its writer's successor rewrites it in a segment of its own.
func TestTornTailEndsSegment(t *testing.T) {
	payload := bytes.Repeat([]byte("t"), 300)
	keys := []Key{NewKey(KindResult, []byte("a")), NewKey(KindResult, []byte("b"))}
	var seg []byte
	for _, k := range keys {
		seg = append(seg, encodeRecord(k, payload)...)
	}
	for cut := len(seg) - int(recordSize(len(payload))) + 1; cut < len(seg); cut += 37 {
		dir := t.TempDir()
		path := writeSegment(t, dir, 1, seg[:cut])
		s := mustOpen(t, dir, Options{})
		if got, status := s.Get(keys[0]); status != StatusHit || !bytes.Equal(got, payload) {
			t.Fatalf("cut %d: record before the torn tail = %v, want hit", cut, status)
		}
		if _, status := s.Get(keys[1]); status != StatusMiss {
			t.Fatalf("cut %d: torn record = %v, want miss", cut, status)
		}
		if _, err := s.Put(keys[1], payload); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, seg[:cut]) {
			t.Fatalf("cut %d: the store wrote to a segment it did not create", cut)
		}
		if _, status := mustOpen(t, dir, Options{}).Get(keys[1]); status != StatusHit {
			t.Fatalf("cut %d: rewritten record = %v, want hit", cut, status)
		}
	}
}

// snapshot returns the names and contents of the files in dir.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// linkAll hard-links every file of src into dst.
func linkAll(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHardLinkedSegmentsStayIntact: a directory whose segments are hard
// links to a snapshot's (how a cache directory is restored from a
// snapshot cheaply) must leave the snapshot byte-identical through
// Puts, hit promotion, corrupt-record healing and eviction — the store
// appends only to segments it created and removes only by unlink.
func TestHardLinkedSegmentsStayIntact(t *testing.T) {
	payload := bytes.Repeat([]byte("h"), 500)
	recSize := recordSize(len(payload))
	snap, live := t.TempDir(), t.TempDir()
	writer := mustOpen(t, snap, Options{})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = NewKey(KindResult, []byte{byte(i)})
		if _, err := writer.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	damaged := NewKey(KindResult, []byte("damaged"))
	rec := encodeRecord(damaged, payload)
	rec[len(rec)-1] ^= 1
	writeSegment(t, snap, 1, rec) // the oldest segment
	want := snapshot(t, snap)
	linkAll(t, snap, live)

	// With this bound every record the store writes gets a segment of
	// its own, and six of them put the linked segments in the older half.
	s := mustOpen(t, live, Options{MaxBytes: 12 * recSize})
	put := func(i int) int {
		n, err := s.Put(NewKey(KindResult, []byte(fmt.Sprintf("new-%d", i))), payload)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for i := 0; i < 6; i++ {
		put(i)
	}
	if _, status := s.Get(keys[0]); status != StatusHit {
		t.Fatalf("hit on a linked segment = %v", status)
	}
	if _, status := s.Get(damaged); status != StatusCorrupt {
		t.Fatalf("damaged linked record = %v, want corrupt", status)
	}
	if evicted := put(6) + put(7); evicted == 0 {
		t.Fatal("no eviction ran")
	}
	if _, status := s.Get(keys[0]); status != StatusHit {
		t.Errorf("promoted entry = %v, want hit", status)
	}
	for name := range want {
		if _, err := os.Stat(filepath.Join(live, name)); !os.IsNotExist(err) {
			t.Errorf("linked segment %s survived eviction in the live directory", name)
		}
	}
	got := snapshot(t, snap)
	if len(got) != len(want) {
		t.Fatalf("snapshot holds %d files, want %d", len(got), len(want))
	}
	for name, data := range want {
		if got[name] != data {
			t.Errorf("snapshot segment %s changed", name)
		}
	}
}

// TestRecreatedDirServesNoRemovedSegments: once a store's directory is
// removed and recreated, its segments are dead — no name links to them
// any more (Nlink 0), though the store still holds them open: it serves
// no hits from them and does not append to them. Segments linked into
// the new directory are served.
func TestRecreatedDirServesNoRemovedSegments(t *testing.T) {
	root := t.TempDir()
	dir, snap := filepath.Join(root, "live"), filepath.Join(root, "snap")
	payload := []byte("entry")
	linked := NewKey(KindResult, []byte("linked"))
	if _, err := mustOpen(t, snap, Options{}).Put(linked, payload); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	removed := NewKey(KindResult, []byte("removed"))
	if _, err := s.Put(removed, payload); err != nil {
		t.Fatal(err)
	}
	own := onlySegment(t, dir)
	f, err := os.Open(own)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	linkAll(t, snap, dir)

	if _, status := s.Get(removed); status != StatusMiss {
		t.Fatalf("entry from a removed segment = %v, want miss", status)
	}
	if got, status := s.Get(linked); status != StatusHit || !bytes.Equal(got, payload) {
		t.Fatalf("entry from a segment linked into the new directory = %v, want hit", status)
	}
	if _, err := s.Put(removed, payload); err != nil {
		t.Fatal(err)
	}
	if fi, _ := f.Stat(); fi.Size() != recordSize(len(payload)) {
		t.Fatalf("the store appended to its removed segment (%d bytes)", fi.Size())
	}
	if _, status := mustOpen(t, dir, Options{}).Get(removed); status != StatusHit {
		t.Fatalf("rewritten entry = %v, want hit in the new directory", status)
	}
}

// TestSharedDropsRemovedDirs: a process that opens, fills and removes
// many cache directories one after another (a fresh directory per run)
// must not keep a Store, with its index, for each of them.
func TestSharedDropsRemovedDirs(t *testing.T) {
	root := t.TempDir()
	keep := filepath.Join(root, "keep")
	kept, err := Shared(keep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		sharedMu.Lock()
		defer sharedMu.Unlock()
		return len(shared)
	}
	before := count()
	for i := 0; i < 50; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run-%d", i))
		s, err := Shared(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if _, err := s.Put(NewKey(KindResult, []byte{byte(i), byte(j)}), []byte("entry")); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(); n > before+1 {
		t.Fatalf("Shared retains %d stores after 50 removed directories, want at most %d", n, before+1)
	}
	// A live directory's store stays, even with no caller holding it.
	if again, err := Shared(keep, Options{}); err != nil || again != kept {
		t.Fatalf("Shared dropped the store of a live directory")
	}
}

// TestSmallSegmentsMerged: a directory that many short-lived processes
// commit to one after another (one CLI run per app) holds at most
// mergeAt+1 small segments, the others hold at least mergeBytes each
// (so their count is bounded by MaxBytes), every entry stays reachable, and a snapshot whose
// segments are hard-linked into the directory stays byte-identical when
// they are merged away.
func TestSmallSegmentsMerged(t *testing.T) {
	dir, snap := t.TempDir(), t.TempDir()
	payload := bytes.Repeat([]byte("m"), 100)
	opts := Options{MaxBytes: 1 << 20} // small segments: under 8 KiB
	linkedKey := NewKey(KindResult, []byte("snapshot"))
	if _, err := mustOpen(t, snap, opts).Put(linkedKey, payload); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, snap)
	linkAll(t, snap, dir)

	keys := []Key{linkedKey}
	for i := 0; i < 10*mergeAt; i++ {
		k := NewKey(KindResult, []byte(fmt.Sprintf("app-%d", i)))
		s := mustOpen(t, dir, opts)
		if _, status := s.Get(k); status != StatusMiss {
			t.Fatalf("process %d: probe = %v, want miss", i, status)
		}
		if _, err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		s.closeFiles()
		keys = append(keys, k)
		small := 0
		for _, p := range segments(t, dir) {
			if fi, err := os.Stat(p); err == nil && fi.Size() < s.mergeBytes() {
				small++
			}
		}
		if small > mergeAt+1 {
			t.Fatalf("after %d processes the directory holds %d small segments, want at most %d", i+1, small, mergeAt+1)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, onlyName(t, want))); !os.IsNotExist(err) {
		t.Error("the linked snapshot segment was never merged")
	}
	fresh := mustOpen(t, dir, opts)
	for i, k := range keys {
		if got, status := fresh.Get(k); status != StatusHit || !bytes.Equal(got, payload) {
			t.Errorf("keys[%d] after merging = %v, want hit", i, status)
		}
	}
	got := snapshot(t, snap)
	if len(got) != len(want) || got[onlyName(t, want)] != want[onlyName(t, want)] {
		t.Error("merging changed the snapshot's segment")
	}
}

// onlyName returns the one file name of a snapshot.
func onlyName(t *testing.T, files map[string]string) string {
	t.Helper()
	if len(files) != 1 {
		t.Fatalf("snapshot holds %d files, want 1", len(files))
	}
	for name := range files {
		return name
	}
	return ""
}
