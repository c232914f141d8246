// Package cachestore is NChecker's persistent, content-addressed scan
// cache: an on-disk store of serialized whole-app scan results, keyed by
// SHA-256 over the inputs that determine them (the app's container bytes,
// the apimodel registry fingerprint, the engine version, and the analysis
// options — see internal/checkers/cache.go for the key anatomy and
// DESIGN.md §7 for the invalidation rules).
//
// The store is an append-only segment log. Each Store appends records
// (segment.go) to a segment file it created itself and never writes to
// any other file; an in-memory index maps each Key to the segment and
// offset of its latest record. A local miss reads the tails that other
// processes' segments grew since the last look, so their entries become
// visible without any coordination beyond the filesystem. Files older
// engines wrote (one file per entry) are never read; a store's first
// commit unlinks them.
//
// The store is crash-safe and self-healing by construction:
//
//   - a writer killed mid-append leaves a torn tail, which every reader
//     takes as the end of that segment;
//   - every record is checksummed twice: the entry envelope (codec.go)
//     covers the payload, and the record header sum binds the key and
//     length to it. A damaged record reads as corrupt, its segment is
//     unlinked, and the caller falls back to a cold scan and rewrites it;
//   - the total size is bounded by MaxBytes: once it is passed, whole
//     segments are unlinked, oldest first. A hit on a record in an old
//     segment is re-appended to the active segment by the store's next
//     commit, so hot entries outlive the segment they were first written
//     to; the read path itself never writes;
//   - the segment count stays small: a store that starts a segment while
//     more than mergeAt small segments lie in the directory copies their
//     records into it and unlinks them, so a directory shared by many
//     short-lived processes does not collect one segment per process;
//   - a segment counts only while its name in the directory still
//     resolves to the file the store has open, so a store whose directory
//     was removed and recreated serves nothing from the removed files.
//
// Get/Put never return errors the caller must abort on: cache trouble
// degrades to a cold scan, it does not fail the scan.
package cachestore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// KindResult is the one entry kind: a whole-app scan result
// (ResultEntry). The kind is the first byte of a Key, of its filename, of
// a record and of the entry envelope; envelopes of any other kind are
// rejected.
const KindResult byte = 'r'

// DefaultMaxBytes is the default size bound (256 MiB).
const DefaultMaxBytes int64 = 256 << 20

// entryExt suffixes entry names (Key.Filename): the names the cache hub
// serves entries under, and the names of the one-file-per-entry files
// older engines wrote. The store no longer reads such files; it counts
// them against MaxBytes and evicts them first.
const entryExt = ".nce"

// Segment files are named seg-<creation stamp, 16 hex>-<random, 8 hex>.ncs,
// so lexical order is creation order: eviction takes the smallest names.
const (
	segPrefix = "seg-"
	segExt    = ".ncs"
)

// Key addresses one cache entry: an entry kind plus a SHA-256 over the
// entry's identity parts.
type Key struct {
	Kind byte
	Sum  [sha256.Size]byte
}

// NewKey hashes the parts (length-prefixed, so part boundaries are
// unambiguous) into a key of the given kind. Flipping any single part —
// app bytes, registry fingerprint, engine version, options — yields a
// different key, which is the store's entire invalidation story.
func NewKey(kind byte, parts ...[]byte) Key {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	k := Key{Kind: kind}
	h.Sum(k.Sum[:0])
	return k
}

// Filename is the entry's name on the cache hub's wire.
func (k Key) Filename() string {
	return fmt.Sprintf("%c-%x%s", k.Kind, k.Sum, entryExt)
}

// GetStatus classifies a Get outcome.
type GetStatus uint8

const (
	// StatusMiss: no entry under the key.
	StatusMiss GetStatus = iota
	// StatusHit: the entry decoded and checksummed clean.
	StatusHit
	// StatusCorrupt: a record existed but failed validation (bit rot, a
	// file truncated under the store, a kind or key mismatch). Its
	// segment has been unlinked; the caller should treat it as a miss and
	// rescan cold.
	StatusCorrupt
)

// Options tunes a Store.
type Options struct {
	// MaxBytes bounds the total size of the files in the directory; a
	// commit that passes it unlinks the oldest segments to get back under
	// it. <= 0 means DefaultMaxBytes.
	MaxBytes int64
}

// Store is one cache directory. All methods are safe for concurrent use
// by multiple goroutines; concurrent processes sharing the directory are
// safe too: each appends only to its own segments, and they meet only
// through unlinks.
type Store struct {
	dir      string
	maxBytes int64

	// mu guards everything below it: the index, the open segments and
	// the size total. File reads and appends happen under it; checksum
	// validation of a read record does not.
	mu    sync.Mutex
	index map[Key]loc
	segs  map[string]*segment
	// active is the segment this store appends to; nil until the first
	// commit, and again after it is rotated, damaged or unlinked.
	active *segment
	// used approximates the directory total so a commit can stay O(1):
	// set from a directory listing, then bumped per append.
	used int64
	// listed is set once the directory has been listed and indexed.
	listed bool
	gen    uint64 // refresh generation, to find segments that vanished
	// swept is set once the store has unlinked the older-engine files,
	// at its first commit.
	swept bool
	// promote holds the hits on records in old segments; the next commit
	// re-appends them to the active segment. Get queues them rather than
	// appending, so a store that only reads (a read-only scan) never
	// creates or unlinks a file on a hit.
	promote map[Key]struct{}

	// repl, when set, extends the store across processes: Get falls back
	// to it on a local miss, Put pushes committed entries to it
	// (replicate.go — the fleet cache-replication path).
	replMu sync.RWMutex
	repl   Replicator
}

// segment is one open segment file.
type segment struct {
	name, path string
	f          *os.File
	id         os.FileInfo // identity at open, for os.SameFile
	// indexed is how far the segment has been indexed: for the active
	// segment, everything this store wrote; for others, up to the first
	// torn or damaged record.
	indexed int64
	keys    []Key // keys indexed here, to drop them with the segment
	gen     uint64
}

// loc is where a key's latest record lives.
type loc struct {
	seg *segment
	off int64
	n   int64
}

// Open opens (creating if needed) the cache directory. It creates no
// file: the first segment appears with the first commit.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cachestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	max := opts.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	return &Store{
		dir:      dir,
		maxBytes: max,
		index:    make(map[Key]loc),
		segs:     make(map[string]*segment),
		promote:  make(map[Key]struct{}),
	}, nil
}

var (
	sharedMu sync.Mutex
	shared   = make(map[string]*Store)
)

// Shared returns the process-wide Store for the directory, opening it on
// first use. Batch scans hitting the same -cache directory share one
// Store (one index, one active segment) instead of opening it per app.
// The first opener's Options win. Opening a new directory also forgets
// the stores whose directories no longer exist, so a process that works
// through many short-lived cache directories holds only the live ones.
func Shared(dir string, opts Options) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s, ok := shared[abs]; ok {
		return s, nil
	}
	for d, st := range shared {
		if _, err := os.Stat(d); errors.Is(err, fs.ErrNotExist) {
			delete(shared, d)
			st.closeFiles()
		}
	}
	s, err := Open(abs, opts)
	if err != nil {
		return nil, err
	}
	shared[abs] = s
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// rotateBytes is the size past which the active segment is retired and a
// new one started: an eighth of the bound, so eviction frees the
// directory in steps of about that size.
func (s *Store) rotateBytes() int64 { return s.maxBytes / 8 }

// Get looks the key up. On a hit it returns the entry payload. A corrupt
// record is reported as StatusCorrupt and its segment unlinked. When a
// Replicator is wired (SetReplicator), a local miss falls back to a
// remote fetch: a clean fetched envelope is committed locally and
// answered as a hit, and any replication trouble stays a plain miss.
func (s *Store) Get(key Key) ([]byte, GetStatus) {
	env, status := s.get(key)
	switch status {
	case StatusMiss:
		return s.getRemote(key)
	case StatusHit:
		return env[envelopeOverhead:], StatusHit
	}
	return nil, status
}

// get is the local lookup behind Get and GetEnvelope: it returns the
// validated envelope of the key's record.
func (s *Store) get(key Key) ([]byte, GetStatus) {
	s.mu.Lock()
	l, ok := s.index[key]
	if ok {
		if _, live := linked(l.seg); !live {
			s.drop(l.seg)
			ok = false
		}
	}
	if !ok {
		s.refresh()
		if l, ok = s.index[key]; !ok {
			s.mu.Unlock()
			return nil, StatusMiss
		}
	}
	rec := make([]byte, l.n)
	_, err := l.seg.f.ReadAt(rec, l.off)
	s.mu.Unlock()

	var env []byte
	if err == nil {
		env, err = openRecord(rec, key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// A damaged record must never surface as a result. Unlink its
		// segment so no process reads it again; the next Put rewrites
		// the entry.
		if s.segs[l.seg.name] == l.seg {
			if _, live := linked(l.seg); live {
				os.Remove(l.seg.path)
			}
			s.drop(l.seg)
		}
		return nil, StatusCorrupt
	}
	if s.index[key] == l && s.old(l.seg) {
		s.promote[key] = struct{}{}
	}
	return env, StatusHit
}

// old reports whether seg sits in the older half of the bound: the
// segments created after it hold at least maxBytes/2. A hit there is
// queued for promotion so the entry is not evicted with its segment.
func (s *Store) old(seg *segment) bool {
	if seg == s.active {
		return false
	}
	var newer int64
	for _, o := range s.segs {
		if o.name > seg.name {
			newer += o.indexed
		}
	}
	return newer >= s.maxBytes/2
}

// getRemote is Get's miss path: consult the Replicator, validate the
// fetched envelope exactly like a local read, commit it locally so the
// next Get is a disk hit, and answer the payload. Every failure mode —
// no replicator, remote miss, corrupt transfer, commit trouble — reads
// as a plain miss.
func (s *Store) getRemote(key Key) ([]byte, GetStatus) {
	r := s.replicator()
	if r == nil {
		return nil, StatusMiss
	}
	data := r.Fetch(key.Filename())
	if data == nil {
		return nil, StatusMiss
	}
	kind, payload, err := DecodeEntry(data)
	if err != nil || kind != key.Kind {
		// A damaged or mismatched transfer must never surface as a hit,
		// and must not be committed.
		return nil, StatusMiss
	}
	// The payload itself is valid; serve it even if the local commit
	// failed (e.g. a read-only filesystem) — replication must only ever
	// add hits.
	s.commit(key, recordFromEnvelope(key, data))
	return payload, StatusHit
}

// Put appends the payload's record under the key to the active segment,
// then unlinks the oldest segments if the directory total passed its
// bound. It returns how many files eviction unlinked, counting the
// older-engine files the store's first commit sweeps. A payload that alone
// exceeds the bound is skipped (not an error): caching it would
// immediately evict everything else. With a Replicator wired, a
// committed entry is also pushed to the remote side (best-effort) so
// peers can hit it.
func (s *Store) Put(key Key, payload []byte) (evicted int, err error) {
	rec := encodeRecord(key, payload)
	evicted, err = s.commit(key, rec)
	if err == nil {
		if r := s.replicator(); r != nil {
			r.Push(key.Filename(), rec[recordHeader:])
		}
	}
	return evicted, err
}

// commit appends an encoded record, after the promotions queued since
// the last commit, then evicts if the directory total passed the bound.
// It is the shared write path of Put, PutEnvelope, and remote-fetch
// commits, and the only one: nothing else creates, appends to or unlinks
// a file, apart from the unlink of a segment found damaged. It never
// pushes to the Replicator, so hub writes and fetched-entry commits
// cannot echo back out.
func (s *Store) commit(key Key, rec []byte) (evicted int, err error) {
	if int64(len(rec)) > s.maxBytes {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.listed {
		s.refresh()
	}
	if !s.swept {
		s.swept = true
		evicted = s.sweep()
	}
	s.promoteHits()
	if err := s.append(key, rec); err != nil {
		return evicted, err
	}
	if s.used > s.maxBytes {
		evicted += s.evict()
	}
	return evicted, nil
}

// sweep unlinks the files older engines left: per-entry r-*.nce and
// s-*.nce files and put-*.tmp temp files. This engine never reads them,
// and while they are there every listing steps over them; a directory an
// older engine used can hold tens of thousands. An older engine still
// running on the directory loses its entries, which costs it misses.
// It returns the number of files unlinked. Callers hold mu.
func (s *Store) sweep() int {
	d, err := os.Open(s.dir)
	if err != nil {
		return 0
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return 0
	}
	n := 0
	for _, name := range names {
		if isLegacy(name) && os.Remove(filepath.Join(s.dir, name)) == nil {
			n++
		}
	}
	return n
}

// promoteHits re-appends the records of the queued hits that are still
// in an old segment. A record is validated again before it is copied.
// Callers hold mu.
func (s *Store) promoteHits() {
	for key := range s.promote {
		delete(s.promote, key)
		l, ok := s.index[key]
		if !ok || !s.old(l.seg) {
			continue
		}
		rec := make([]byte, l.n)
		if _, err := l.seg.f.ReadAt(rec, l.off); err != nil {
			continue
		}
		if _, err := openRecord(rec, key); err != nil {
			continue
		}
		if s.append(key, rec) != nil {
			return
		}
	}
}

// append writes rec to the active segment, starting a new segment when
// there is none, when the active one has reached rotateBytes, or when it
// is no longer exactly what this store wrote (unlinked, replaced, or
// changed by someone else). Callers hold mu.
func (s *Store) append(key Key, rec []byte) error {
	a := s.active
	if a != nil {
		size, live := linked(a)
		full := a.indexed > 0 && a.indexed+int64(len(rec)) > s.rotateBytes()
		if full || !live || size != a.indexed {
			s.active, a = nil, nil
		}
	}
	if a == nil {
		var err error
		if a, err = s.create(); err != nil {
			return err
		}
		s.active = a
		if err := s.merge(); err != nil {
			return err
		}
	}
	off := a.indexed
	if err := s.write(rec); err != nil {
		return err
	}
	s.put(key, loc{seg: a, off: off, n: int64(len(rec))})
	return nil
}

// write appends b to the active segment. Callers hold mu.
func (s *Store) write(b []byte) error {
	a := s.active
	if _, err := a.f.Write(b); err != nil {
		// A short write leaves a torn tail: retire the segment so nothing
		// is appended after it, where readers would never look.
		s.active = nil
		return fmt.Errorf("cachestore: %w", err)
	}
	a.indexed += int64(len(b))
	s.used += int64(len(b))
	return nil
}

// mergeAt is how many small segments may lie in the directory before a
// store starting a segment merges them into it. Every process that
// commits starts a segment of its own, and a process's first miss opens
// and scans every segment, so without merging a directory used by many
// short-lived processes (one CLI run per app) would make each new
// process pay for all the earlier ones.
const mergeAt = 16

// mergeBytes is the size below which a segment is small: a sixteenth of
// the rotation size, so one merge copies at most about rotateBytes. The
// segment count then stays below mergeAt small segments plus
// maxBytes/mergeBytes = 128 larger ones.
func (s *Store) mergeBytes() int64 { return s.rotateBytes() / mergeAt }

// merge runs when the store has just started a segment. If more than
// mergeAt small segments of other stores are indexed, it copies the
// records the index points to in them (validated, oldest segment first)
// into the new segment and unlinks them. The copies are younger than the
// originals, as after a promotion. A record another process appends to a
// segment while it is merged is lost with the segment; that costs a
// miss, never a wrong result. Callers hold mu.
func (s *Store) merge() error {
	var small []*segment
	for _, seg := range s.segs {
		if seg != s.active && seg.indexed < s.mergeBytes() {
			small = append(small, seg)
		}
	}
	if len(small) <= mergeAt {
		return nil
	}
	sort.Slice(small, func(i, j int) bool { return small[i].name < small[j].name })
	type moved struct {
		key    Key
		off, n int64
	}
	var (
		out    []byte
		recs   []moved
		merged []*segment
		seen   = make(map[Key]bool)
	)
	for _, seg := range small {
		if int64(len(out)) >= s.rotateBytes() {
			break
		}
		buf := make([]byte, seg.indexed)
		if _, err := seg.f.ReadAt(buf, 0); err != nil {
			continue
		}
		for _, k := range seg.keys {
			l := s.index[k]
			if l.seg != seg || seen[k] {
				continue
			}
			seen[k] = true
			rec := buf[l.off : l.off+l.n]
			if _, err := openRecord(rec, k); err != nil {
				continue
			}
			recs = append(recs, moved{key: k, off: int64(len(out)), n: l.n})
			out = append(out, rec...)
		}
		merged = append(merged, seg)
	}
	a := s.active
	base := a.indexed
	if err := s.write(out); err != nil {
		return err
	}
	for _, m := range recs {
		s.put(m.key, loc{seg: a, off: base + m.off, n: m.n})
	}
	for _, seg := range merged {
		if size, live := linked(seg); live && os.Remove(seg.path) == nil {
			s.used -= size
		}
		s.drop(seg)
	}
	return nil
}

// lastStamp keeps segment creation stamps strictly increasing within
// the process, so lexical name order is creation order even when the
// clock does not tick between two creations.
var lastStamp atomic.Int64

func nextStamp() int64 {
	for {
		last := lastStamp.Load()
		now := time.Now().UnixNano()
		if now <= last {
			now = last + 1
		}
		if lastStamp.CompareAndSwap(last, now) {
			return now
		}
	}
}

// create makes a new segment for this store to append to. O_EXCL makes
// sure it is a file no one else has; names do not collide in practice.
func (s *Store) create() (*segment, error) {
	name := fmt.Sprintf("%s%016x-%08x%s", segPrefix, nextStamp(), rand.Uint32(), segExt)
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	id, err := f.Stat()
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	seg := &segment{name: name, path: path, f: f, id: id, gen: s.gen}
	s.segs[name] = seg
	return seg, nil
}

// linked reports whether seg's name in the directory still resolves to
// the file the store has open, and that file's size. An unlinked segment
// (Nlink 0), or one whose directory was removed and recreated, is dead.
func linked(seg *segment) (size int64, ok bool) {
	fi, err := os.Lstat(seg.path)
	if err != nil || !os.SameFile(seg.id, fi) {
		return 0, false
	}
	return fi.Size(), true
}

// put points the index at a record.
func (s *Store) put(key Key, l loc) {
	s.index[key] = l
	l.seg.keys = append(l.seg.keys, key)
}

// drop forgets a segment: its index entries, its file handle and, if it
// was the active segment, the right to append to it. It does not touch
// the file on disk.
func (s *Store) drop(seg *segment) {
	for _, k := range seg.keys {
		if s.index[k].seg == seg {
			delete(s.index, k)
		}
	}
	seg.f.Close()
	delete(s.segs, seg.name)
	if s.active == seg {
		s.active = nil
	}
}

// closeFiles drops every segment; the store stays usable and relists
// the directory on its next miss.
func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		s.drop(seg)
	}
	clear(s.promote)
	s.listed = false
}

// dirFile is one file in the cache directory that counts against the
// bound.
type dirFile struct {
	name string
	info os.FileInfo
	seg  bool // a segment; otherwise a file from an older engine
}

// isSegment reports whether name is a segment file's name.
func isSegment(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt)
}

// isLegacy reports whether name is the name of a file an older engine
// wrote: a per-entry file (r-*.nce, s-*.nce) or a temp file.
func isLegacy(name string) bool {
	return strings.HasSuffix(name, entryExt) ||
		strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp")
}

// list returns the directory's segments and, with legacy set, the
// older-engine files, sorted by name. The older-engine names all sort
// before "seg-", so in this order they come first and the segments
// follow oldest first. Only the files returned are stat'ed.
func (s *Store) list(legacy bool) ([]dirFile, error) {
	d, err := os.Open(s.dir)
	if err != nil {
		return nil, err
	}
	ents, err := d.ReadDir(-1)
	d.Close()
	if err != nil {
		return nil, err
	}
	var files []dirFile
	for _, e := range ents {
		name := e.Name()
		seg := isSegment(name)
		if !e.Type().IsRegular() || !seg && !(legacy && isLegacy(name)) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, dirFile{name: name, info: info, seg: seg})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	return files, nil
}

// refresh lists the directory and brings the index up to date: segments
// that vanished or were replaced are dropped, new segments are opened,
// and every segment's unindexed tail is scanned. It also resets the size
// total to the segments' total. Callers hold mu.
func (s *Store) refresh() {
	files, err := s.list(false)
	if err != nil {
		for _, seg := range s.segs {
			s.drop(seg)
		}
		return
	}
	s.listed = true
	s.gen++
	var total int64
	for _, f := range files {
		total += f.info.Size()
		seg := s.segs[f.name]
		if seg != nil && (!os.SameFile(seg.id, f.info) || f.info.Size() < seg.indexed) {
			s.drop(seg)
			seg = nil
		}
		if seg == nil {
			if seg = s.openSegment(f.name); seg == nil {
				continue
			}
		}
		seg.gen = s.gen
		if f.info.Size() > seg.indexed && seg != s.active {
			s.scan(seg, f.info.Size())
		}
	}
	for _, seg := range s.segs {
		if seg.gen != s.gen {
			s.drop(seg)
		}
	}
	s.used = total
}

// openSegment opens another store's segment for reading.
func (s *Store) openSegment(name string) *segment {
	path := filepath.Join(s.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	id, err := f.Stat()
	if err != nil {
		f.Close()
		return nil
	}
	seg := &segment{name: name, path: path, f: f, id: id}
	s.segs[name] = seg
	return seg
}

// scan indexes the records of seg between its indexed offset and size,
// stopping at the first torn or damaged record. A later record for a
// key replaces an earlier one.
func (s *Store) scan(seg *segment, size int64) {
	var buf [recordScanSize]byte
	off := seg.indexed
	for {
		key, n, ok := nextRecord(seg.f, off, size, &buf)
		if !ok {
			break
		}
		if key.Kind == KindResult {
			s.put(key, loc{seg: seg, off: off, n: n})
		}
		off += n
	}
	seg.indexed = off
}

// Remove forgets the entry under the key. Its record stays on disk until
// its segment is evicted; this store no longer serves it.
func (s *Store) Remove(key Key) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}

// Len returns the number of entries the store can serve, after reading
// what other processes appended.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refresh()
	return len(s.index)
}

// evict unlinks files in list order until the directory total is within
// maxBytes: older-engine files first, then segments oldest first, never
// the active segment. Segment names are unique and ordered by creation,
// so the order does not depend on mtimes. evict leaves used holding the
// post-eviction total and returns the number of files unlinked. Callers
// hold mu.
func (s *Store) evict() int {
	files, err := s.list(true)
	if err != nil {
		return 0
	}
	var total int64
	for _, f := range files {
		total += f.info.Size()
	}
	evicted := 0
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if s.active != nil && f.name == s.active.name {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, f.name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if seg := s.segs[f.name]; seg != nil {
			s.drop(seg)
		}
		total -= f.info.Size()
		evicted++
	}
	s.used = total
	return evicted
}
