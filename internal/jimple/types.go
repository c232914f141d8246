// Package jimple defines a typed, three-address intermediate representation
// for Android-style application code, modeled after the Jimple IR produced
// by Soot/Dexpler. Apps under analysis are represented as jimple.Program
// values: a set of classes with fields and methods, where each method body
// is a flat list of statements with index-based branch targets and
// exception ranges (traps).
//
// The IR is the substrate every analysis in this repository consumes: the
// control-flow graph builder (internal/cfg), the class hierarchy and call
// graph (internal/hierarchy, internal/callgraph), the dataflow engines
// (internal/dataflow) and ultimately the NChecker checkers
// (internal/checkers). It is deliberately small — just the statement and
// expression inventory those analyses need — but faithful to Jimple's
// shape: explicit locals, explicit receivers, one side effect per
// statement.
package jimple

import (
	"fmt"
	"strings"
)

// Primitive and well-known type names. Types in this IR are plain strings:
// either a primitive name, a fully qualified class name
// ("java.lang.String"), or an array type ("byte[]").
const (
	TypeVoid    = "void"
	TypeBoolean = "boolean"
	TypeInt     = "int"
	TypeLong    = "long"
	TypeFloat   = "float"
	TypeDouble  = "double"
	TypeString  = "java.lang.String"
	TypeObject  = "java.lang.Object"
)

// IsPrimitive reports whether t names a primitive (non-reference) type.
func IsPrimitive(t string) bool {
	switch t {
	case TypeVoid, TypeBoolean, TypeInt, TypeLong, TypeFloat, TypeDouble, "byte", "char", "short":
		return true
	}
	return false
}

// IsRef reports whether t names a reference type (class or array).
func IsRef(t string) bool { return !IsPrimitive(t) }

// IsArray reports whether t names an array type.
func IsArray(t string) bool { return strings.HasSuffix(t, "[]") }

// ElemType returns the element type of an array type, or t itself if t is
// not an array type.
func ElemType(t string) string { return strings.TrimSuffix(t, "[]") }

// SimpleName returns the class name without its package qualifier.
// Inner-class separators ('$') are preserved.
func SimpleName(t string) string {
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		return t[i+1:]
	}
	return t
}

// OuterClass returns the outermost enclosing class name for an
// inner-class name such as "com.app.Main$Listener"; for a top-level class
// it returns the name unchanged.
func OuterClass(t string) string {
	if i := strings.IndexByte(SimpleName(t), '$'); i >= 0 {
		pkgEnd := strings.LastIndexByte(t, '.')
		return t[:pkgEnd+1+i]
	}
	return t
}

// Sig identifies a method: declaring class, name, parameter types, and
// return type. Sig values are comparable only via Key (slices are not
// comparable), and Key is the canonical form used in maps throughout the
// analyses.
//
// A Sig may carry its rendered key. The decoders (dex, ParseSigKey) and
// Keyed fill it, so the many later Key and SubSigKey calls of a scan are
// field reads instead of renders. The cached key is served only while it
// still spells the exported fields: a copy whose Class, Name, Params or
// Ret was reassigned renders afresh and never answers with a stale key.
type Sig struct {
	Class  string
	Name   string
	Params []string
	Ret    string

	key string // rendering of the fields above, or "" when not rendered
}

// MakeSig is shorthand for constructing a Sig. It does not render the key.
func MakeSig(class, name string, params []string, ret string) Sig {
	return Sig{Class: class, Name: name, Params: params, Ret: ret}
}

// Keyed returns a copy of s carrying its rendered key. The copy's Class,
// Name and Ret are substrings of that key, which turns most of the
// validity check in Key into pointer comparisons; Params is shared with s.
func (s Sig) Keyed() Sig {
	key := s.render(true)
	s.Name = key[len(s.Class)+1 : len(s.Class)+1+len(s.Name)]
	s.Class = key[:len(s.Class)]
	s.Ret = key[len(key)-len(s.Ret):]
	s.key = key
	return s
}

// Key returns the canonical string form of the signature,
// e.g. "com.android.volley.RequestQueue.add(com.android.volley.Request)void".
func (s Sig) Key() string {
	if s.keyed() {
		return s.key
	}
	return s.render(true)
}

// SubSigKey returns the signature key without the declaring class —
// the "subsignature" used for override matching during virtual dispatch.
func (s Sig) SubSigKey() string {
	if s.keyed() {
		return s.key[len(s.Class)+1:]
	}
	return s.render(false)
}

// keyed reports whether s.key is exactly the rendering of s's fields. It
// walks the key piece by piece without allocating. The length check comes
// first, so every slice below is in range; for a Sig whose fields are
// substrings of its key (Keyed, ParseSigKey) each comparison is a length
// and pointer check.
func (s *Sig) keyed() bool {
	k := s.key
	if k == "" || len(k) != s.keyLen() || k[:len(s.Class)] != s.Class {
		return false
	}
	k = k[len(s.Class):]
	if k[0] != '.' || k[1:1+len(s.Name)] != s.Name {
		return false
	}
	k = k[1+len(s.Name):]
	if k[0] != '(' {
		return false
	}
	k = k[1:]
	for i, p := range s.Params {
		if i > 0 {
			if k[0] != ',' {
				return false
			}
			k = k[1:]
		}
		if k[:len(p)] != p {
			return false
		}
		k = k[len(p):]
	}
	return k[0] == ')' && k[1:] == s.Ret
}

// keyLen returns the length of s's rendered key.
func (s *Sig) keyLen() int {
	n := len(s.Class) + len(s.Name) + len(s.Ret) + 3 // '.', '(', ')'
	for i, p := range s.Params {
		if i > 0 {
			n++
		}
		n += len(p)
	}
	return n
}

// AppendKey appends s's key to dst. Report rendering uses it: reports hold
// Sigs without a cached key (report.At), and appending a key into the
// report buffer allocates nothing.
func (s Sig) AppendKey(dst []byte) []byte {
	if s.keyed() {
		return append(dst, s.key...)
	}
	return s.appendKey(dst, true)
}

// render returns the key, or with withClass false the subsignature key,
// in one allocation: keys of up to renderBuf bytes are built on the stack.
func (s *Sig) render(withClass bool) string {
	var buf [renderBuf]byte
	return string(s.appendKey(buf[:0], withClass))
}

// renderBuf is render's stack buffer size. The longest key of the
// evaluation corpus and the framework model has 152 bytes; a longer key
// still renders, with one more allocation.
const renderBuf = 192

// appendKey is the one place the canonical form is spelled out:
// Class '.' Name '(' Params joined by ',' ')' Ret, without the class part
// when withClass is false.
func (s *Sig) appendKey(dst []byte, withClass bool) []byte {
	if withClass {
		dst = append(dst, s.Class...)
		dst = append(dst, '.')
	}
	dst = append(dst, s.Name...)
	dst = append(dst, '(')
	for i, p := range s.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p...)
	}
	dst = append(dst, ')')
	return append(dst, s.Ret...)
}

func (s Sig) String() string { return s.Key() }

// WithClass returns a copy of s redeclared on class c. Used when resolving
// an inherited method to a concrete implementing class. The copy carries
// no cached key.
func (s Sig) WithClass(c string) Sig {
	return Sig{Class: c, Name: s.Name, Params: s.Params, Ret: s.Ret}
}

// ParseSigKey parses the canonical form produced by Sig.Key. It returns an
// error if the string is malformed.
func ParseSigKey(key string) (Sig, error) {
	open := strings.IndexByte(key, '(')
	closeIdx := strings.LastIndexByte(key, ')')
	if open < 0 || closeIdx < open {
		return Sig{}, fmt.Errorf("jimple: malformed signature key %q", key)
	}
	qual := key[:open]
	dot := strings.LastIndexByte(qual, '.')
	if dot < 0 {
		return Sig{}, fmt.Errorf("jimple: signature key %q lacks a declaring class", key)
	}
	var params []string
	if inner := key[open+1 : closeIdx]; inner != "" {
		params = strings.Split(inner, ",")
	}
	ret := key[closeIdx+1:]
	if ret == "" {
		return Sig{}, fmt.Errorf("jimple: signature key %q lacks a return type", key)
	}
	// The fields are substrings of key and spell it exactly, so the key
	// is kept as the Sig's cached rendering.
	return Sig{Class: qual[:dot], Name: qual[dot+1:], Params: params, Ret: ret, key: key}, nil
}
