package cachestore

import (
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
