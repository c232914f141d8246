package cachestore

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/jimple"
	"repro/internal/report"
)

// The entry envelope and the result payload codec. Entries are untrusted
// input (any process can write to the cache directory, and crashed
// writers can truncate files mid-entry), so decoding is defensive end to
// end: a checksummed envelope rejects damage cheaply, and the payload
// decoders bound every count against the remaining input before
// allocating. Any decode failure is corruption by definition — the caller
// falls back to a cold scan.
//
// Wire format (envelope):
//
//	magic "NCC1" | kind byte | payload length u32 LE | sha256(payload) | payload
//
// Payload values use uvarint/varint primitives; strings and slices are
// count-prefixed. The format carries the codec version in the magic: any
// incompatible change bumps it, and old entries read as corrupt (a miss).

var entryMagic = []byte("NCC1")

const envelopeOverhead = 4 + 1 + 4 + sha256.Size

// maxPayload bounds a single entry payload (defensive parsing; real
// entries are kilobytes).
const maxPayload = 1 << 28

var errCorrupt = errors.New("cachestore: corrupt entry")

// EncodeEntry wraps a payload in the checksummed envelope.
func EncodeEntry(kind byte, payload []byte) []byte {
	return appendEntry(make([]byte, 0, envelopeOverhead+len(payload)), kind, payload)
}

// appendEntry appends the envelope for payload to out.
func appendEntry(out []byte, kind byte, payload []byte) []byte {
	out = append(out, entryMagic...)
	out = append(out, kind)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// DecodeEntry validates the envelope and returns the entry kind and
// payload. Truncation, trailing garbage, a checksum mismatch, or an
// unknown format all return an error — the caller treats the entry as
// corrupt.
func DecodeEntry(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < envelopeOverhead || string(data[:4]) != string(entryMagic) {
		return 0, nil, errCorrupt
	}
	kind = data[4]
	if kind != KindResult {
		return 0, nil, errCorrupt
	}
	n := binary.LittleEndian.Uint32(data[5:])
	if n > maxPayload || envelopeOverhead+int(n) != len(data) {
		return 0, nil, errCorrupt
	}
	payload = data[envelopeOverhead:]
	sum := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(sum[:], data[9:9+sha256.Size]) != 1 {
		return 0, nil, errCorrupt
	}
	return kind, payload, nil
}

// ResultEntry is a whole-app scan result as cached: the reports verbatim,
// the stats flattened to a counter vector (the checkers package owns the
// field order — a length mismatch after a Stats change reads as corrupt),
// and the scan-scale numbers diagnostics report on a cache hit.
type ResultEntry struct {
	AppMethods int
	Sites      int
	Reports    []report.Report
	Counters   []int64
	Libs       []string
}

// EncodeResultEntry serializes a result payload (wrap with EncodeEntry
// under KindResult before storing).
func EncodeResultEntry(e *ResultEntry) []byte {
	w := newWriter()
	w.uvarint(uint64(e.AppMethods))
	w.uvarint(uint64(e.Sites))
	w.uvarint(uint64(len(e.Reports)))
	for i := range e.Reports {
		w.reportValue(&e.Reports[i])
	}
	w.uvarint(uint64(len(e.Counters)))
	for _, c := range e.Counters {
		w.varint(c)
	}
	w.uvarint(uint64(len(e.Libs)))
	for _, l := range e.Libs {
		w.str(l)
	}
	return w.buf
}

// DecodeResultEntry parses a result payload.
func DecodeResultEntry(payload []byte) (*ResultEntry, error) {
	r := &reader{buf: payload}
	e := &ResultEntry{
		AppMethods: r.count(),
		Sites:      r.count(),
	}
	if n := r.sliceLen(); n > 0 {
		e.Reports = make([]report.Report, n)
		for i := range e.Reports {
			r.reportValue(&e.Reports[i])
		}
	}
	if n := r.sliceLen(); n > 0 {
		e.Counters = make([]int64, n)
		for i := range e.Counters {
			e.Counters[i] = r.varint()
		}
	}
	if n := r.sliceLen(); n > 0 {
		e.Libs = make([]string, n)
		for i := range e.Libs {
			e.Libs[i] = r.str()
		}
	}
	return e, r.finish()
}

// --- writer -----------------------------------------------------------------

type writer struct {
	buf []byte
}

func newWriter() *writer { return &writer{buf: make([]byte, 0, 256)} }

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) boolean(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) sig(s jimple.Sig) {
	w.str(s.Class)
	w.str(s.Name)
	w.uvarint(uint64(len(s.Params)))
	for _, p := range s.Params {
		w.str(p)
	}
	w.str(s.Ret)
}

func (w *writer) reportValue(r *report.Report) {
	w.str(string(r.Cause))
	w.str(string(r.Lib))
	w.str(r.Message)
	w.sig(r.Location.Method)
	w.varint(int64(r.Location.Stmt))
	w.uvarint(uint64(len(r.Impacts)))
	for _, im := range r.Impacts {
		w.str(string(im))
	}
	w.str(r.Context.Component)
	w.uvarint(uint64(r.Context.Kind))
	w.str(r.Context.KindName)
	w.boolean(r.Context.UserInitiated)
	w.str(r.Context.HTTPMethod)
	w.uvarint(uint64(len(r.CallStack)))
	for _, f := range r.CallStack {
		w.str(f.Method)
		w.varint(int64(f.Site))
	}
	w.str(r.FixSuggestion)
	w.boolean(r.DefaultCaused)
	w.str(r.Validation)
	w.str(r.ValidationNote)
}

// --- reader -----------------------------------------------------------------

// reader is a sticky-error cursor: the first malformed field poisons it
// and every later read returns zero values, so decoders can parse
// straight-line and check finish() once.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errCorrupt, what, r.pos)
	}
}

func (r *reader) finish() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.fail("trailing bytes")
	}
	return r.err
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.pos += n
	return v
}

// count reads a non-negative size that must fit in an int.
func (r *reader) count() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("count overflow")
		return 0
	}
	return int(v)
}

// sliceLen reads an element count and bounds it by the remaining input
// (every element costs at least one byte), so a corrupt length can never
// force a huge allocation.
func (r *reader) sliceLen() int {
	n := r.count()
	if r.err == nil && n > len(r.buf)-r.pos {
		r.fail("slice length exceeds input")
		return 0
	}
	return n
}

func (r *reader) str() string {
	n := r.sliceLen()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *reader) boolean() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		r.fail("bool")
		return false
	}
	b := r.buf[r.pos]
	if b > 1 {
		// Only canonical 0/1 decode, so decode∘encode is the identity on
		// every valid entry (the fuzz target's round-trip property).
		r.fail("bool")
		return false
	}
	r.pos++
	return b == 1
}

func (r *reader) sig() jimple.Sig {
	s := jimple.Sig{Class: r.str(), Name: r.str()}
	if n := r.sliceLen(); n > 0 {
		s.Params = make([]string, n)
		for i := range s.Params {
			s.Params[i] = r.str()
		}
	}
	s.Ret = r.str()
	return s
}

func (r *reader) reportValue(out *report.Report) {
	out.Cause = report.Cause(r.str())
	out.Lib = apimodel.LibKey(r.str())
	out.Message = r.str()
	out.Location.Method = r.sig()
	out.Location.Stmt = int(r.varint())
	if n := r.sliceLen(); n > 0 {
		out.Impacts = make([]report.Impact, n)
		for i := range out.Impacts {
			out.Impacts[i] = report.Impact(r.str())
		}
	}
	out.Context.Component = r.str()
	out.Context.Kind = android.ComponentKind(r.uvarint())
	out.Context.KindName = r.str()
	out.Context.UserInitiated = r.boolean()
	out.Context.HTTPMethod = r.str()
	if n := r.sliceLen(); n > 0 {
		out.CallStack = make([]report.Frame, n)
		for i := range out.CallStack {
			out.CallStack[i].Method = r.str()
			out.CallStack[i].Site = int(r.varint())
		}
	}
	out.FixSuggestion = r.str()
	out.DefaultCaused = r.boolean()
	out.Validation = r.str()
	out.ValidationNote = r.str()
}
