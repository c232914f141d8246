package interp

import (
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// budgetExceeded is the sentinel exception type raised when a run exceeds
// its step budget — the interpreter's stand-in for a watchdog catching a
// runaway loop (e.g. a tight reconnect loop under a persistent outage).
const budgetExceeded = "interp.StepBudgetExceeded"

// NativeFunc implements a framework or library method. recv is the
// receiver (nil for statics); it returns the call's result or a thrown
// exception.
type NativeFunc func(m *Machine, recv Value, args []Value) (Value, *Thrown)

// Machine executes app code against a native-method model and a network
// fault model.
type Machine struct {
	H   *hierarchy.Hierarchy
	Net *NetModel
	Obs *Observations
	// Receivers lists manifest-declared broadcast receivers so
	// sendBroadcast can dispatch dynamically (set by the runner).
	Receivers []string

	natives map[string]NativeFunc // subsig key or class+"."+subsig
	// MaxSteps bounds total executed statements per run.
	MaxSteps int
	steps    int
}

// NewMachine builds a machine over the program hierarchy with the
// standard native model and the given network scenario.
func NewMachine(h *hierarchy.Hierarchy, net *NetModel) *Machine {
	m := &Machine{
		H:        h,
		Net:      net,
		Obs:      &Observations{},
		natives:  make(map[string]NativeFunc),
		MaxSteps: 200_000,
	}
	registerNatives(m)
	return m
}

// RegisterNative installs a native implementation for class.subsig.
func (m *Machine) RegisterNative(class, subsig string, fn NativeFunc) {
	m.natives[class+"."+subsig] = fn
}

// lookupNative finds a native for the invocation, walking the receiver's
// runtime class chain and then the declared class chain.
func (m *Machine) lookupNative(runtimeType string, callee jimple.Sig) NativeFunc {
	sub := callee.SubSigKey()
	for _, start := range []string{runtimeType, callee.Class} {
		if start == "" {
			continue
		}
		for cur := start; cur != ""; {
			if fn, ok := m.natives[cur+"."+sub]; ok {
				return fn
			}
			cls := m.H.Class(cur)
			if cls == nil {
				break
			}
			cur = cls.Super
		}
	}
	return nil
}

// Call interprets method m with the given receiver and arguments.
func (mc *Machine) Call(m *jimple.Method, recv Value, args []Value) (Value, *Thrown) {
	if !m.HasBody() {
		return nil, nil
	}
	env := make(map[string]Value, len(m.Locals))
	pc := 0
	for pc < len(m.Body) {
		mc.steps++
		if mc.steps > mc.MaxSteps {
			mc.Obs.BudgetExceeded = true
			return nil, &Thrown{Type: budgetExceeded, Msg: m.Sig.Key()}
		}
		s := m.Body[pc]
		var thrown *Thrown
		next := pc + 1
		switch s := s.(type) {
		case *jimple.AssignStmt:
			var v Value
			v, thrown = mc.eval(m, env, recv, args, s.RHS)
			if thrown == nil {
				thrown = mc.assign(env, s.LHS, v)
			}
		case *jimple.InvokeStmt:
			_, thrown = mc.invoke(m, env, s.Call)
		case *jimple.IfStmt:
			var c Value
			c, thrown = mc.eval(m, env, recv, args, s.Cond)
			if thrown == nil && truthy(c) {
				next = s.Target
			}
		case *jimple.GotoStmt:
			next = s.Target
		case *jimple.ReturnStmt:
			if s.V == nil {
				return nil, nil
			}
			v, th := mc.eval(m, env, recv, args, s.V)
			return v, th
		case *jimple.ThrowStmt:
			v, th := mc.eval(m, env, recv, args, s.V)
			if th != nil {
				thrown = th
			} else if obj, ok := v.(*Obj); ok && obj != nil {
				thrown = &Thrown{Type: obj.Type, Msg: "thrown by app", Obj: obj}
			} else {
				thrown = &Thrown{Type: "java.lang.NullPointerException", Msg: "throw null"}
			}
		case *jimple.NopStmt:
			// nothing
		}
		if thrown != nil {
			if thrown.Type == budgetExceeded {
				return nil, thrown
			}
			handler, ok := mc.findHandler(m, pc, thrown)
			if !ok {
				return nil, thrown
			}
			env["@caught"] = exceptionObj(thrown)
			next = handler
		}
		pc = next
	}
	return nil, nil
}

func exceptionObj(t *Thrown) *Obj {
	if t.Obj != nil {
		return t.Obj
	}
	o := NewObj(t.Type)
	o.Set("message", t.Msg)
	return o
}

// findHandler locates the innermost trap covering pc whose exception type
// is compatible with the thrown one.
func (mc *Machine) findHandler(m *jimple.Method, pc int, t *Thrown) (int, bool) {
	for _, trap := range m.Traps {
		if pc >= trap.Begin && pc < trap.End && mc.H.IsSubtype(t.Type, trap.Exception) {
			return trap.Handler, true
		}
	}
	return 0, false
}

func (mc *Machine) assign(env map[string]Value, lhs jimple.LValue, v Value) *Thrown {
	switch lhs := lhs.(type) {
	case jimple.Local:
		env[lhs.Name] = v
	case jimple.FieldRef:
		if lhs.Base == "" {
			// Static fields live in a per-machine global namespace.
			if mc.Obs.statics == nil {
				mc.Obs.statics = make(map[string]Value)
			}
			mc.Obs.statics[lhs.Class+"."+lhs.Field] = v
			return nil
		}
		obj, ok := env[lhs.Base].(*Obj)
		if !ok || obj == nil {
			return &Thrown{Type: "java.lang.NullPointerException",
				Msg: fmt.Sprintf("field store on null %s", lhs.Base)}
		}
		obj.Set(lhs.Field, v)
	}
	return nil
}

func (mc *Machine) eval(m *jimple.Method, env map[string]Value, recv Value, args []Value, v jimple.Value) (Value, *Thrown) {
	switch v := v.(type) {
	case jimple.Local:
		return env[v.Name], nil
	case jimple.IntConst:
		return v.V, nil
	case jimple.StrConst:
		return v.V, nil
	case jimple.NullConst:
		return nil, nil
	case jimple.ParamRef:
		if v.Index >= 0 && v.Index < len(args) {
			return args[v.Index], nil
		}
		return nil, nil
	case jimple.ThisRef:
		return recv, nil
	case jimple.CaughtExRef:
		return env["@caught"], nil
	case jimple.FieldRef:
		if v.Base == "" {
			if mc.Obs.statics == nil {
				return nil, nil
			}
			return mc.Obs.statics[v.Class+"."+v.Field], nil
		}
		obj, ok := env[v.Base].(*Obj)
		if !ok || obj == nil {
			return nil, &Thrown{Type: "java.lang.NullPointerException",
				Msg: fmt.Sprintf("field read on null %s", v.Base)}
		}
		return obj.Get(v.Field), nil
	case jimple.NewExpr:
		return NewObj(v.Type), nil
	case jimple.InvokeExpr:
		// Bind the invocation using the current frame's env.
		return mc.invoke(m, env, v)
	case jimple.BinExpr:
		l, th := mc.eval(m, env, recv, args, v.L)
		if th != nil {
			return nil, th
		}
		r, th := mc.eval(m, env, recv, args, v.R)
		if th != nil {
			return nil, th
		}
		return evalBin(v.Op, l, r), nil
	case jimple.NegExpr:
		inner, th := mc.eval(m, env, recv, args, v.V)
		if th != nil {
			return nil, th
		}
		return b2i(!truthy(inner)), nil
	case jimple.CastExpr:
		return mc.eval(m, env, recv, args, v.V)
	case jimple.InstanceOfExpr:
		inner, th := mc.eval(m, env, recv, args, v.V)
		if th != nil {
			return nil, th
		}
		obj, ok := inner.(*Obj)
		if !ok || obj == nil {
			return int64(0), nil
		}
		return b2i(mc.H.IsSubtype(obj.Type, v.Type)), nil
	}
	return nil, nil
}

func evalBin(op jimple.BinOp, l, r Value) Value {
	// Reference comparisons.
	if op == jimple.OpEQ || op == jimple.OpNE {
		lo, lIsObj := l.(*Obj)
		ro, rIsObj := r.(*Obj)
		if lIsObj || rIsObj || l == nil || r == nil {
			eq := false
			switch {
			case l == nil && r == nil:
				eq = true
			case lIsObj && rIsObj:
				eq = lo == ro
			}
			if op == jimple.OpEQ {
				return b2i(eq)
			}
			return b2i(!eq)
		}
	}
	li, lok := asInt(l)
	ri, rok := asInt(r)
	if !lok || !rok {
		return int64(0)
	}
	switch op {
	case jimple.OpEQ:
		return b2i(li == ri)
	case jimple.OpNE:
		return b2i(li != ri)
	case jimple.OpLT:
		return b2i(li < ri)
	case jimple.OpLE:
		return b2i(li <= ri)
	case jimple.OpGT:
		return b2i(li > ri)
	case jimple.OpGE:
		return b2i(li >= ri)
	case jimple.OpAdd:
		return li + ri
	case jimple.OpSub:
		return li - ri
	case jimple.OpMul:
		return li * ri
	case jimple.OpDiv:
		if ri == 0 {
			return int64(0)
		}
		return li / ri
	case jimple.OpRem:
		if ri == 0 {
			return int64(0)
		}
		return li % ri
	case jimple.OpAnd:
		return li & ri
	case jimple.OpOr:
		return li | ri
	case jimple.OpXor:
		return li ^ ri
	}
	return int64(0)
}

// invoke dispatches an invocation: app methods are interpreted; modeled
// framework/library methods run their natives; anything else is a no-op.
func (mc *Machine) invoke(caller *jimple.Method, env map[string]Value, inv jimple.InvokeExpr) (Value, *Thrown) {
	var recv Value
	if inv.Base != "" {
		recv = env[inv.Base]
	}
	args := make([]Value, len(inv.Args))
	for i, a := range inv.Args {
		v, th := mc.eval(caller, env, nil, nil, a)
		if th != nil {
			return nil, th
		}
		args[i] = v
	}
	return mc.dispatch(recv, inv, args)
}

// dispatch resolves and runs a call with already-evaluated arguments.
func (mc *Machine) dispatch(recv Value, inv jimple.InvokeExpr, args []Value) (Value, *Thrown) {
	runtimeType := inv.Callee.Class
	if obj, ok := recv.(*Obj); ok && obj != nil && inv.Kind != jimple.InvokeStatic && inv.Kind != jimple.InvokeSpecial {
		runtimeType = obj.Type
	}
	// Instance calls on null receivers NPE — unless a native handles the
	// class (modeled framework calls on unresolved handles are tolerated).
	if inv.Kind != jimple.InvokeStatic && recv == nil {
		if fn := mc.lookupNative(inv.Callee.Class, inv.Callee); fn != nil {
			return fn(mc, recv, args)
		}
		return nil, &Thrown{Type: "java.lang.NullPointerException",
			Msg: fmt.Sprintf("call %s on null", inv.Callee.Name)}
	}
	// App-defined body?
	if target := mc.H.LookupMethod(runtimeType, inv.Callee.SubSigKey()); target != nil && target.HasBody() {
		return mc.Call(target, recv, args)
	}
	if fn := mc.lookupNative(runtimeType, inv.Callee); fn != nil {
		return fn(mc, recv, args)
	}
	return zeroOf(inv.Callee.Ret), nil
}

func zeroOf(ret string) Value {
	switch ret {
	case jimple.TypeVoid:
		return nil
	case jimple.TypeInt, jimple.TypeBoolean, "long", "byte", "char", "short":
		return int64(0)
	}
	return nil
}

// InvokeCallback runs a callback method on an object with args (used by
// natives that model asynchronous dispatch).
func (mc *Machine) InvokeCallback(obj *Obj, subsig string, args []Value) (Value, *Thrown) {
	if obj == nil {
		return nil, nil
	}
	target := mc.H.LookupMethod(obj.Type, subsig)
	if target == nil || !target.HasBody() {
		return nil, nil
	}
	return mc.Call(target, obj, args)
}
