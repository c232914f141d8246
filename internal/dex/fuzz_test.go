package dex_test

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dex"
	"repro/internal/jimple"
)

// FuzzDecode drives the binary decoder with untrusted bytes: any input
// must either decode cleanly or return an error — never panic (decode
// panics surface in core as ErrDecode regressions). Valid inputs must
// round-trip canonically, and every decoded method and invoke signature,
// eager or lazy, must answer Key and SubSigKey with a fresh render. Seeds come from the round-trip tests' encoded
// corpus apps plus structural mutations of them.
func FuzzDecode(f *testing.F) {
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range apps[:3] {
		f.Add(dex.Encode(a.App.Program))
	}
	prog := jimple.MustParse(`class a.B extends java.lang.Object {
  method run()void {
    local x java.lang.String
    x = "s"
    return
  }
}`)
	seed := dex.Encode(prog)
	f.Add(seed)
	// URL string building: the concatenation chains the endpoint checker's
	// constant propagation walks, with a cleartext scheme and an IP host.
	urlProg := jimple.MustParse(`class u.C extends java.lang.Object {
  method build()java.lang.String {
    local base java.lang.String
    local u java.lang.String
    base = "http://203.0.113.7"
    u = base + "/api?q=%22term%22"
    return u
  }
}`)
	f.Add(dex.Encode(urlProg))
	// Truncations and bit flips of a valid payload reach deep decoder
	// states that random bytes rarely find.
	f.Add(seed[:len(seed)/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := dex.Decode(data)
		if err != nil {
			return
		}
		checkSigKeys(t, prog)
		// The lazy path decodes the same references through the skim and,
		// later, Materialize; both share its memo.
		l, err := dex.DecodeLazy(data)
		if err != nil {
			t.Fatalf("lazy decode rejects what eager decode accepts: %v", err)
		}
		for _, r := range l.MethodRefs() {
			checkSigKey(t, r.Sig)
			for _, c := range r.Calls {
				checkSigKey(t, c)
			}
		}
		if err := l.MaterializeAll(); err != nil {
			t.Fatal(err)
		}
		checkSigKeys(t, l.Program())
		// A successfully decoded program must re-encode, and the decoder
		// must accept its own canonical form back.
		re := dex.Encode(prog)
		again, err := dex.Decode(re)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(dex.Encode(again), re) {
			t.Fatal("canonical encoding not a fixpoint")
		}
	})
}

// checkSigKey asserts that a decoded Sig's Key and SubSigKey equal a
// fresh render of its fields. The decoder caches each reference's key;
// a cached key must never disagree with the fields it was rendered from.
func checkSigKey(t *testing.T, s jimple.Sig) {
	t.Helper()
	fresh := jimple.MakeSig(s.Class, s.Name, s.Params, s.Ret)
	if s.Key() != fresh.Key() || s.SubSigKey() != fresh.SubSigKey() {
		t.Fatalf("decoded Sig answers %q / %q, fresh render %q / %q",
			s.Key(), s.SubSigKey(), fresh.Key(), fresh.SubSigKey())
	}
}

// checkSigKeys applies checkSigKey to every method signature of prog and
// to every invoke callee in its bodies, nested ones included.
func checkSigKeys(t *testing.T, prog *jimple.Program) {
	t.Helper()
	var value func(v jimple.Value)
	value = func(v jimple.Value) {
		switch v := v.(type) {
		case jimple.InvokeExpr:
			checkSigKey(t, v.Callee)
			for _, a := range v.Args {
				value(a)
			}
		case jimple.BinExpr:
			value(v.L)
			value(v.R)
		case jimple.NegExpr:
			value(v.V)
		case jimple.CastExpr:
			value(v.V)
		case jimple.InstanceOfExpr:
			value(v.V)
		}
	}
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			checkSigKey(t, m.Sig)
			for _, st := range m.Body {
				switch st := st.(type) {
				case *jimple.AssignStmt:
					value(st.LHS)
					value(st.RHS)
				case *jimple.InvokeStmt:
					value(st.Call)
				case *jimple.IfStmt:
					value(st.Cond)
				case *jimple.ReturnStmt:
					value(st.V)
				case *jimple.ThrowStmt:
					value(st.V)
				}
			}
		}
	}
}
