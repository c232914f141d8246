package dex

import (
	"encoding/binary"
	"fmt"

	"repro/internal/jimple"
)

// Decode parses bytes produced by Encode back into a program. It treats
// the input as untrusted: malformed data yields an error, never a panic.
func Decode(data []byte) (*jimple.Program, error) {
	d := &decoder{data: data}
	prog, err := d.run()
	if err != nil {
		return nil, fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
	}
	return prog, nil
}

const (
	// maxSigsHint caps the method-reference memo's pre-size, so a hostile
	// pool count cannot reserve memory ahead of the references using it.
	maxSigsHint = 4096
	// paramSlab is the parameter-slab size, in strings: the distinct
	// parameter lists of a corpus container hold about 20 in all.
	paramSlab = 32
)

type decoder struct {
	data []byte
	pos  int
	pool []string
	// lazy, when non-nil, switches method bodies to the skim path: the
	// same bytes are parsed with the same validation, but no statement
	// objects are built — only the span + MethodRef are recorded.
	lazy *Lazy
	// localScratch is skimBody's reusable local-type buffer.
	localScratch []string
	// sigs memoizes decoded method references by their encoded bytes
	// (sig). pscratch is sig's reusable parameter buffer, and pslab the
	// slab the memoized Params are carved from. A lazy container's memo
	// outlives the skim: Materialize decodes with it.
	sigs     map[sigRef]jimple.Sig
	pscratch []string
	pslab    []string
}

func (d *decoder) run() (*jimple.Program, error) {
	if len(d.data) < 4 || [4]byte(d.data[:4]) != Magic {
		return nil, fmt.Errorf("bad magic")
	}
	d.pos = 4
	ver, err := d.u64()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("unsupported version %d", ver)
	}
	nstr, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nstr > uint64(len(d.data)) {
		return nil, fmt.Errorf("string pool count %d exceeds input size", nstr)
	}
	d.pool = make([]string, nstr)
	for i := range d.pool {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		d.pool[i] = s
	}
	// A container references about one distinct method per two pool
	// strings (0.41 on average over the evaluation corpus, 0.8 at most).
	d.sigs = make(map[sigRef]jimple.Sig, min(len(d.pool)/2, maxSigsHint))
	nclass, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nclass > uint64(len(d.data)) {
		return nil, fmt.Errorf("class count %d exceeds input size", nclass)
	}
	prog := jimple.NewProgram()
	for i := uint64(0); i < nclass; i++ {
		c, err := d.class()
		if err != nil {
			return nil, err
		}
		prog.AddClass(c)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("%d trailing bytes", len(d.data)-d.pos)
	}
	return prog, nil
}

func (d *decoder) u64() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint")
	}
	d.pos += n
	return v, nil
}

func (d *decoder) count(what string) (int, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.data)) {
		return 0, fmt.Errorf("%s count %d exceeds input size", what, v)
	}
	return int(v), nil
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("truncated byte")
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	if uint64(d.pos)+n > uint64(len(d.data)) {
		return "", fmt.Errorf("truncated string of length %d", n)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) ref() (string, error) {
	idx, err := d.u64()
	if err != nil {
		return "", err
	}
	if idx >= uint64(len(d.pool)) {
		return "", fmt.Errorf("string index %d out of pool range %d", idx, len(d.pool))
	}
	return d.pool[idx], nil
}

func (d *decoder) class() (*jimple.Class, error) {
	c := &jimple.Class{}
	var err error
	if c.Name, err = d.ref(); err != nil {
		return nil, err
	}
	if c.Super, err = d.ref(); err != nil {
		return nil, err
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	c.IsIface = flags&flagIface != 0
	c.Abstract = flags&flagAbstract != 0
	nif, err := d.count("interface")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nif; i++ {
		s, err := d.ref()
		if err != nil {
			return nil, err
		}
		c.Interfaces = append(c.Interfaces, s)
	}
	nf, err := d.count("field")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nf; i++ {
		f := &jimple.Field{}
		if f.Name, err = d.ref(); err != nil {
			return nil, err
		}
		if f.Type, err = d.ref(); err != nil {
			return nil, err
		}
		ff, err := d.byte()
		if err != nil {
			return nil, err
		}
		f.Static = ff&fflagStatic != 0
		c.Fields = append(c.Fields, f)
	}
	nm, err := d.count("method")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nm; i++ {
		m, err := d.method()
		if err != nil {
			return nil, err
		}
		c.Methods = append(c.Methods, m)
	}
	return c, nil
}

// sig decodes a method reference. Each distinct reference of a container
// is built once, with its key rendered (jimple.Sig.Keyed): a repeat — the
// same callee invoked from many sites — returns the memoized Sig, which
// shares the key and the Params slice. The memo is keyed by the encoded
// bytes, which fix the pool indices and so the Sig exactly; the fields are
// read and checked first, so malformed input fails as it always did.
func (d *decoder) sig() (jimple.Sig, error) {
	start := d.pos
	class, err := d.ref()
	if err != nil {
		return jimple.Sig{}, err
	}
	name, err := d.ref()
	if err != nil {
		return jimple.Sig{}, err
	}
	np, err := d.count("param")
	if err != nil {
		return jimple.Sig{}, err
	}
	d.pscratch = d.pscratch[:0]
	for i := 0; i < np; i++ {
		p, err := d.ref()
		if err != nil {
			return jimple.Sig{}, err
		}
		d.pscratch = append(d.pscratch, p)
	}
	ret, err := d.ref()
	if err != nil {
		return jimple.Sig{}, err
	}
	var ref sigRef
	raw := d.data[start:d.pos]
	memo := len(raw) < len(ref)
	if memo {
		copy(ref[:], raw)
		ref[len(ref)-1] = byte(len(raw))
		if s, ok := d.sigs[ref]; ok {
			return s, nil
		}
	}
	s := jimple.Sig{Class: class, Name: name, Ret: ret}
	if np > 0 {
		s.Params = d.params(d.pscratch)
	}
	s = s.Keyed()
	if memo {
		d.sigs[ref] = s
	}
	return s, nil
}

// sigRef is the memo key of a method reference: its encoded bytes, zero
// padded, with their length in the last byte. A reference of 16 bytes or
// more (a long parameter list over a large pool) is decoded unmemoized.
type sigRef [16]byte

// params returns a copy of ps carved from a shared slab, so the decoded
// signatures of a container share a few parameter arrays instead of one
// each. The copy's capacity is its length: appending to it reallocates.
func (d *decoder) params(ps []string) []string {
	if len(ps) > cap(d.pslab)-len(d.pslab) {
		d.pslab = make([]string, 0, max(len(ps), paramSlab))
	}
	n := len(d.pslab)
	d.pslab = append(d.pslab, ps...)
	return d.pslab[n:len(d.pslab):len(d.pslab)]
}

func (d *decoder) method() (*jimple.Method, error) {
	m := &jimple.Method{}
	var err error
	if m.Sig, err = d.sig(); err != nil {
		return nil, err
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	m.Static = flags&mflagStatic != 0
	m.Abstract = flags&mflagAbstract != 0
	if flags&mflagHasBody == 0 {
		if !m.Abstract {
			m.Abstract = true
		}
		return m, nil
	}
	if m.Abstract {
		// The encoder never emits both flags: an abstract method carrying
		// a body is malformed input, not a representable program
		// (fuzz-found canonicality break).
		return nil, fmt.Errorf("method %s: abstract flag with body", m.Sig.Key())
	}
	if d.lazy != nil {
		if err := d.lazyBody(m); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := d.body(m); err != nil {
		return nil, err
	}
	return m, nil
}

// body decodes the encoded body section — locals, statements, traps, and
// the empty-body normalization — into m. It is the single decoder core
// shared by the eager path (method) and the lazy path (lazy.go), which
// skims it once for call records and re-runs it on demand to materialize
// a class; sharing it is what makes the two paths bit-identical.
func (d *decoder) body(m *jimple.Method) error {
	nl, err := d.count("local")
	if err != nil {
		return err
	}
	for i := 0; i < nl; i++ {
		var l jimple.LocalDecl
		if l.Name, err = d.ref(); err != nil {
			return err
		}
		if l.Type, err = d.ref(); err != nil {
			return err
		}
		m.Locals = append(m.Locals, l)
	}
	ns, err := d.count("statement")
	if err != nil {
		return err
	}
	for i := 0; i < ns; i++ {
		s, err := d.stmt()
		if err != nil {
			return err
		}
		m.Body = append(m.Body, s)
	}
	nt, err := d.count("trap")
	if err != nil {
		return err
	}
	for i := 0; i < nt; i++ {
		var t jimple.Trap
		b, err := d.u64()
		if err != nil {
			return err
		}
		e, err := d.u64()
		if err != nil {
			return err
		}
		h, err := d.u64()
		if err != nil {
			return err
		}
		exc, err := d.ref()
		if err != nil {
			return err
		}
		t.Begin, t.End, t.Handler, t.Exception = int(b), int(e), int(h), exc
		m.Traps = append(m.Traps, t)
	}
	if m.Body == nil {
		// A has-body method with zero statements decodes to the same
		// program state as an abstract stub; normalize it like the
		// jimple parser does so re-encoding is canonical.
		m.Abstract = true
		m.Locals = nil
		m.Traps = nil
	}
	return nil
}

func (d *decoder) stmt() (jimple.Stmt, error) {
	op, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch op {
	case opAssign:
		lhs, err := d.value()
		if err != nil {
			return nil, err
		}
		lv, ok := lhs.(jimple.LValue)
		if !ok {
			return nil, fmt.Errorf("assign target is not an lvalue (%T)", lhs)
		}
		rhs, err := d.value()
		if err != nil {
			return nil, err
		}
		return &jimple.AssignStmt{LHS: lv, RHS: rhs}, nil
	case opInvoke:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		inv, ok := v.(jimple.InvokeExpr)
		if !ok {
			return nil, fmt.Errorf("invoke statement holds %T", v)
		}
		return &jimple.InvokeStmt{Call: inv}, nil
	case opIf:
		cond, err := d.value()
		if err != nil {
			return nil, err
		}
		t, err := d.u64()
		if err != nil {
			return nil, err
		}
		return &jimple.IfStmt{Cond: cond, Target: int(t)}, nil
	case opGoto:
		t, err := d.u64()
		if err != nil {
			return nil, err
		}
		return &jimple.GotoStmt{Target: int(t)}, nil
	case opReturn:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return &jimple.ReturnStmt{V: v}, nil
	case opReturnVoid:
		return &jimple.ReturnStmt{}, nil
	case opThrow:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return &jimple.ThrowStmt{V: v}, nil
	case opNop:
		return &jimple.NopStmt{}, nil
	}
	return nil, fmt.Errorf("unknown opcode %d", op)
}

func (d *decoder) value() (jimple.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagLocal:
		n, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.Local{Name: n}, nil
	case tagIntConst:
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		return jimple.IntConst{V: v}, nil
	case tagStrConst:
		s, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.StrConst{V: s}, nil
	case tagNull:
		return jimple.NullConst{}, nil
	case tagParamRef:
		idx, err := d.u64()
		if err != nil {
			return nil, err
		}
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.ParamRef{Index: int(idx), Type: t}, nil
	case tagThisRef:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.ThisRef{Type: t}, nil
	case tagCaughtEx:
		return jimple.CaughtExRef{}, nil
	case tagFieldRef:
		base, err := d.ref()
		if err != nil {
			return nil, err
		}
		cls, err := d.ref()
		if err != nil {
			return nil, err
		}
		fld, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.FieldRef{Base: base, Class: cls, Field: fld}, nil
	case tagNew:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.NewExpr{Type: t}, nil
	case tagInvoke:
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		if kind > byte(jimple.InvokeStatic) {
			return nil, fmt.Errorf("bad invoke kind %d", kind)
		}
		base, err := d.ref()
		if err != nil {
			return nil, err
		}
		callee, err := d.sig()
		if err != nil {
			return nil, err
		}
		na, err := d.count("argument")
		if err != nil {
			return nil, err
		}
		var args []jimple.Value
		for i := 0; i < na; i++ {
			a, err := d.value()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		return jimple.InvokeExpr{Kind: jimple.InvokeKind(kind), Base: base, Callee: callee, Args: args}, nil
	case tagBin:
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if op > byte(jimple.OpXor) {
			return nil, fmt.Errorf("bad binary op %d", op)
		}
		l, err := d.value()
		if err != nil {
			return nil, err
		}
		r, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.BinExpr{Op: jimple.BinOp(op), L: l, R: r}, nil
	case tagNeg:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.NegExpr{V: v}, nil
	case tagCast:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.CastExpr{Type: t, V: v}, nil
	case tagInstanceOf:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.InstanceOfExpr{Type: t, V: v}, nil
	}
	return nil, fmt.Errorf("unknown value tag %d", tag)
}
