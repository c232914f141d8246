package cachestore

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCacheEntry throws arbitrary bytes at the full decode path — the
// envelope plus the result payload codec. Cache entries are untrusted
// input (any process can write the cache directory), so the properties
// are:
//
//  1. decoding never panics, whatever the input;
//  2. only KindResult envelopes decode;
//  3. any entry that does decode re-encodes and re-decodes to the same
//     value (decode∘encode is the identity on the codec's image, the
//     canonical-form property the warm path's byte-identity rests on).
func FuzzCacheEntry(f *testing.F) {
	// Seed with well-formed result entries plus structured junk: a
	// checksummed envelope of a foreign kind (the shape of the 's' summary
	// entries older engines wrote) and one with a trailing byte.
	rng := rand.New(rand.NewSource(2016))
	result := EncodeEntry(KindResult, EncodeResultEntry(randResultEntry(rng)))
	f.Add(result)
	f.Add(EncodeEntry(KindResult, EncodeResultEntry(&ResultEntry{})))
	f.Add([]byte("NCC1"))
	f.Add([]byte{})
	f.Add(EncodeEntry('s', []byte{3, 'a', '.', 'B', 0}))
	f.Add(append(append([]byte(nil), result...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if kind != KindResult {
			t.Fatalf("envelope of kind %q decoded", kind)
		}
		e, err := DecodeResultEntry(payload)
		if err != nil {
			return
		}
		re := EncodeEntry(KindResult, EncodeResultEntry(e))
		kind2, payload2, err := DecodeEntry(re)
		if err != nil || kind2 != KindResult {
			t.Fatalf("re-encoded result entry failed envelope decode: %v", err)
		}
		e2, err := DecodeResultEntry(payload2)
		if err != nil {
			t.Fatalf("re-encoded result entry failed payload decode: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("result entry not canonical:\n first %+v\nsecond %+v", e, e2)
		}
	})
}

// FuzzSegment throws arbitrary bytes at the segment scan and record read
// path a Store runs over segment files. Segments are untrusted input like
// entries, so the properties are:
//
//  1. scanning and reading never panic, whatever the input;
//  2. a record read back clean carries a header sum over its key and
//     length and an envelope whose payload matches its checksum — both
//     recomputed here, independently of the decoder;
//  3. cutting the segment short anywhere (a torn tail) yields a prefix
//     of the records the whole segment yields.
func FuzzSegment(f *testing.F) {
	rng := rand.New(rand.NewSource(2016))
	one := encodeRecord(NewKey(KindResult, []byte("a")), EncodeResultEntry(randResultEntry(rng)))
	two := append(append([]byte(nil), one...), encodeRecord(NewKey(KindResult, []byte("b")), []byte("payload"))...)
	flipped := append([]byte(nil), two...)
	flipped[len(one)+7] ^= 0x10
	f.Add(two, uint16(len(two)))
	f.Add(two[:len(two)-3], uint16(len(one)+5))
	f.Add(flipped, uint16(len(flipped)))
	f.Add(recordFromEnvelope(NewKey(KindResult, []byte("s")), EncodeEntry('s', []byte("x"))), uint16(0))
	f.Add([]byte("NCL1"), uint16(2))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		type found struct {
			key    Key
			off, n int64
		}
		scanAll := func(seg []byte) []found {
			var out []found
			var buf [recordScanSize]byte
			r := bytes.NewReader(seg)
			for off := int64(0); ; {
				key, n, ok := nextRecord(r, off, int64(len(seg)), &buf)
				if !ok {
					return out
				}
				out = append(out, found{key, off, n})
				off += n
			}
		}
		all := scanAll(data)
		for _, rec := range all {
			raw := data[rec.off : rec.off+rec.n]
			env, err := openRecord(raw, rec.key)
			if err != nil {
				continue
			}
			sum := headerSum(raw[:recordLenEnd], raw[recordHeader:recordScanSize])
			if !bytes.Equal(sum[:], raw[recordLenEnd:recordHeader]) {
				t.Fatalf("record at %d served with a bad header sum", rec.off)
			}
			payloadSum := sha256.Sum256(env[envelopeOverhead:])
			if !bytes.Equal(payloadSum[:], env[9:envelopeOverhead]) || env[4] != rec.key.Kind {
				t.Fatalf("record at %d served with a bad payload checksum or kind", rec.off)
			}
		}
		if int(cut) > len(data) {
			return
		}
		torn := scanAll(data[:cut])
		if len(torn) > len(all) {
			t.Fatalf("cutting the segment at %d added records", cut)
		}
		for i := range torn {
			if torn[i] != all[i] {
				t.Fatalf("cutting the segment at %d changed the records before the cut", cut)
			}
		}
	})
}
