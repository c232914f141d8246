package cachestore

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"io"
)

// The segment record format. A segment is an append-only file of
// records, one per committed entry:
//
//	magic "NCL1" | key kind byte | key sum (32) | envelope length u32 LE |
//	header sum (32) | envelope
//
// The envelope is the checksummed entry envelope of codec.go, verbatim.
// The header sum is SHA-256 over the 41 header bytes before it plus the
// envelope's own 41-byte header (magic, kind, length, payload SHA-256).
// It binds the key to the payload checksum: a flipped key or length bit
// fails it, so a record is never served under a key it was not written
// for, and a scan can trust a length before it reads the payload.
//
// Records carry no offsets or sequence numbers, so a record's bytes can
// be copied verbatim to another segment (hit promotion does).

var recordMagic = []byte("NCL1")

const (
	recordKeyEnd   = 4 + 1 + sha256.Size // magic, kind, key sum
	recordLenEnd   = recordKeyEnd + 4    // + envelope length
	recordHeader   = recordLenEnd + sha256.Size
	recordScanSize = recordHeader + envelopeOverhead // what a scan reads per record
)

// recordSize is the on-disk size of a record holding a payload of n bytes.
func recordSize(n int) int64 { return int64(recordHeader + envelopeOverhead + n) }

// encodeRecord builds the record for a payload in one buffer; the
// envelope is the slice rec[recordHeader:].
func encodeRecord(key Key, payload []byte) []byte {
	rec := make([]byte, recordHeader, recordSize(len(payload)))
	rec = appendEntry(rec, key.Kind, payload)
	sealRecord(rec, key)
	return rec
}

// recordFromEnvelope wraps an already-encoded envelope in a record.
func recordFromEnvelope(key Key, env []byte) []byte {
	rec := make([]byte, recordHeader, recordHeader+len(env))
	rec = append(rec, env...)
	sealRecord(rec, key)
	return rec
}

// sealRecord fills in the header of rec, whose envelope is already in
// place after recordHeader.
func sealRecord(rec []byte, key Key) {
	copy(rec, recordMagic)
	rec[4] = key.Kind
	copy(rec[5:recordKeyEnd], key.Sum[:])
	binary.LittleEndian.PutUint32(rec[recordKeyEnd:], uint32(len(rec)-recordHeader))
	sum := headerSum(rec[:recordLenEnd], rec[recordHeader:recordScanSize])
	copy(rec[recordLenEnd:recordHeader], sum[:])
}

func headerSum(head, envHead []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(head)
	h.Write(envHead)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// parseHeader validates the first recordScanSize bytes of a record and
// returns its key and total length. It does not look at the payload.
func parseHeader(b []byte) (key Key, n int64, ok bool) {
	if len(b) < recordScanSize || !bytes.Equal(b[:4], recordMagic) {
		return key, 0, false
	}
	envLen := binary.LittleEndian.Uint32(b[recordKeyEnd:])
	if envLen < envelopeOverhead || envLen > envelopeOverhead+maxPayload {
		return key, 0, false
	}
	sum := headerSum(b[:recordLenEnd], b[recordHeader:recordScanSize])
	if subtle.ConstantTimeCompare(sum[:], b[recordLenEnd:recordHeader]) != 1 {
		return key, 0, false
	}
	key.Kind = b[4]
	copy(key.Sum[:], b[5:recordKeyEnd])
	return key, recordHeader + int64(envLen), true
}

// nextRecord reads the record header at off in a segment of the given
// size. ok is false at the end of the segment: a clean end, a torn tail
// (a record cut short by a killed writer, or one still being written),
// or a damaged header — a scan cannot find the next record boundary past
// any of them.
func nextRecord(r io.ReaderAt, off, size int64, buf *[recordScanSize]byte) (key Key, n int64, ok bool) {
	if size-off < recordScanSize {
		return key, 0, false
	}
	if _, err := r.ReadAt(buf[:], off); err != nil {
		return key, 0, false
	}
	key, n, ok = parseHeader(buf[:])
	if !ok || size-off < n {
		return key, 0, false
	}
	return key, n, true
}

// openRecord validates a whole record read back for key and returns its
// envelope: the header checksum, the key, the length, and the envelope
// (checksum and kind) must all hold.
func openRecord(rec []byte, key Key) ([]byte, error) {
	k, n, ok := parseHeader(rec)
	if !ok || k != key || n != int64(len(rec)) {
		return nil, errCorrupt
	}
	env := rec[recordHeader:]
	kind, _, err := DecodeEntry(env)
	if err != nil || kind != key.Kind {
		return nil, errCorrupt
	}
	return env, nil
}
