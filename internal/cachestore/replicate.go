package cachestore

import (
	"encoding/hex"
	"fmt"
	"strings"
)

// This file is the fleet cache-replication path (DESIGN.md §12): a Store
// can be wired to a Replicator so one process's cache traffic serves a
// whole worker fleet. The worker side sets a Replicator that talks to the
// coordinator's cache hub over HTTP; the hub side is itself a plain Store
// exposed through GetEnvelope/PutEnvelope, which move checksummed entry
// envelopes verbatim — the envelope checksum (codec.go) rides along, so a
// truncated or corrupted transfer is rejected exactly like on-disk rot.
//
// Failure semantics match the rest of the store: replication trouble of
// any kind degrades to a local miss (cold scan), never to an error the
// scan must handle. A fetched entry is committed locally before use, so
// subsequent scans hit without touching the network; a locally committed
// entry is pushed best-effort, so peers can hit without recomputing.

// Replicator is a remote entry exchange: Fetch returns the raw entry
// envelope for a filename (nil on miss or any failure), Push offers a
// freshly committed envelope to the remote side (best-effort, errors
// swallowed by the implementation). Implementations must be safe for
// concurrent use.
type Replicator interface {
	Fetch(name string) []byte
	Push(name string, data []byte)
}

// SetReplicator wires r into the store: Get consults it after a local
// miss (committing fetched entries locally), Put pushes committed entries
// to it. Pass nil to detach. Safe to call concurrently with store use.
func (s *Store) SetReplicator(r Replicator) {
	s.replMu.Lock()
	s.repl = r
	s.replMu.Unlock()
}

// replicator returns the current Replicator, or nil.
func (s *Store) replicator() Replicator {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return s.repl
}

// ParseFilename reverses Key.Filename: it accepts exactly the names an
// entry can carry on the hub's wire (kind byte, dash, 64 hex digits,
// entry extension) so the cache-hub HTTP surface can validate requested
// names before touching the store.
func ParseFilename(name string) (Key, bool) {
	var k Key
	if len(name) != 2+2*len(k.Sum)+len(entryExt) || !strings.HasSuffix(name, entryExt) {
		return k, false
	}
	if name[0] != KindResult {
		return k, false
	}
	if name[1] != '-' {
		return k, false
	}
	sum, err := hex.DecodeString(name[2 : 2+2*len(k.Sum)])
	if err != nil {
		return k, false
	}
	k.Kind = name[0]
	copy(k.Sum[:], sum)
	return k, true
}

// GetEnvelope serves one entry's raw envelope bytes by its wire name —
// the hub side of replication. It goes through the same index and
// validation as Get: a corrupt record reads as a miss and its segment is
// unlinked, and a hit in an old segment is promoted, so fleet-hot entries
// stay resident.
func (s *Store) GetEnvelope(name string) ([]byte, bool) {
	key, ok := ParseFilename(name)
	if !ok {
		return nil, false
	}
	env, status := s.get(key)
	return env, status == StatusHit
}

// PutEnvelope accepts one raw entry envelope by its wire name — the hub
// side of a worker push. The name must parse, the envelope must checksum
// clean, and the declared kind must match the name; anything else is
// rejected so a confused or malicious writer cannot plant corrupt
// entries. Accepted envelopes are appended under the size bound like any
// local Put.
func (s *Store) PutEnvelope(name string, data []byte) error {
	key, ok := ParseFilename(name)
	if !ok {
		return fmt.Errorf("cachestore: invalid entry name %q", name)
	}
	kind, _, err := DecodeEntry(data)
	if err != nil {
		return fmt.Errorf("cachestore: rejected envelope for %q: %w", name, err)
	}
	if kind != key.Kind {
		return fmt.Errorf("cachestore: envelope kind %q does not match name %q", kind, name)
	}
	_, err = s.commit(key, recordFromEnvelope(key, data))
	return err
}
