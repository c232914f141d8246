package interp

import (
	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/jimple"
)

// Client-state field names used by the library natives.
const (
	fTimeout  = "timeoutMs"
	fRetries  = "retries"
	fURL      = "url"
	fMethod   = "httpMethod"
	fListener = "listener"
	fErrListn = "errListener"
	fClass    = "className"
	fValid    = "valid"
)

// unset marks a config value the developer never provided.
const unset = int64(-1)

func needObj(recv Value, what string) (*Obj, *Thrown) {
	obj, ok := recv.(*Obj)
	if !ok || obj == nil {
		return nil, &Thrown{Type: android.ClassNullPointerExc, Msg: what + " on null"}
	}
	return obj, nil
}

// doRequest models one library request from the client/request object's
// recorded configuration, falling back to the library defaults —
// faithfully including the dangerous ones (no timeout = a 20-second
// blocking stall; Async HTTP's 5 automatic retries).
func doRequest(m *Machine, lib *apimodel.Library, cfg *Obj) bool {
	timeout := cfg.GetInt(fTimeout, unset)
	if timeout == unset {
		timeout = int64(lib.Defaults.TimeoutMs)
	}
	retries := cfg.GetInt(fRetries, unset)
	if retries == unset {
		retries = int64(lib.Defaults.Retries)
	}
	attempts := 1 + retries
	if attempts < 1 {
		attempts = 1
	}
	for a := int64(0); a < attempts; a++ {
		m.Obs.NetworkAttempts++
		ok, elapsed := m.Net.attemptOutcome(timeout)
		m.Obs.VirtualTimeMs += elapsed
		if ok {
			m.Obs.RequestSuccesses++
			return true
		}
	}
	m.Obs.RequestFailures++
	return false
}

func newResponse(typ string) *Obj {
	r := NewObj(typ)
	r.Set(fValid, int64(1))
	r.Set("status", int64(200))
	return r
}

func ioException(msg string) *Thrown {
	return &Thrown{Type: android.ClassIOException, Msg: msg}
}

// registerNatives installs the framework and library method models.
func registerNatives(m *Machine) {
	reg := apimodel.NewRegistry()
	registerFramework(m)
	registerConfigNatives(m, reg)
	registerTargetNatives(m, reg)
	registerResponseNatives(m)
}

// registerConfigNatives derives timeout/retry setters directly from the
// annotation registry so interpreter semantics can never drift from the
// static model.
func registerConfigNatives(m *Machine, reg *apimodel.Registry) {
	for _, lib := range reg.Libraries() {
		for _, cfg := range lib.Configs {
			cfg := cfg
			switch cfg.Kind {
			case apimodel.ConfigTimeout:
				m.RegisterNative(cfg.Sig.Class, cfg.Sig.SubSigKey(),
					func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
						obj, th := needObj(recv, cfg.Sig.Name)
						if th != nil {
							return nil, th
						}
						if len(args) > 0 {
							if v, ok := asInt(args[0]); ok {
								obj.Set(fTimeout, v)
							}
						}
						return nil, nil
					})
			case apimodel.ConfigRetry:
				if cfg.CountArg < 0 {
					continue
				}
				countArg := cfg.CountArg
				m.RegisterNative(cfg.Sig.Class, cfg.Sig.SubSigKey(),
					func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
						obj, th := needObj(recv, cfg.Sig.Name)
						if th != nil {
							return nil, th
						}
						if countArg < len(args) {
							if v, ok := asInt(args[countArg]); ok {
								obj.Set(fRetries, v)
							}
						}
						return nil, nil
					})
			default:
				m.RegisterNative(cfg.Sig.Class, cfg.Sig.SubSigKey(),
					func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
						_, th := needObj(recv, cfg.Sig.Name)
						return nil, th
					})
			}
		}
	}
}

// registerTargetNatives installs the request-submitting APIs.
func registerTargetNatives(m *Machine, reg *apimodel.Registry) {
	for _, lib := range reg.Libraries() {
		lib := lib
		for ti := range lib.Targets {
			t := lib.Targets[ti]
			switch {
			case lib.Key == apimodel.LibVolley:
				m.RegisterNative(t.Sig.Class, t.Sig.SubSigKey(), volleyAdd(lib))
			case t.HandlerArg >= 0 && lib.Key == apimodel.LibAsyncHTTP:
				m.RegisterNative(t.Sig.Class, t.Sig.SubSigKey(), asyncHTTPRequest(lib, t))
			case t.HandlerArg >= 0: // OkHttp enqueue
				m.RegisterNative(t.Sig.Class, t.Sig.SubSigKey(), okHTTPEnqueue(lib, t))
			case t.ReturnsResponse:
				m.RegisterNative(t.Sig.Class, t.Sig.SubSigKey(), syncRequest(lib, t))
			default: // HttpURLConnection.connect
				m.RegisterNative(t.Sig.Class, t.Sig.SubSigKey(), connectRequest(lib))
			}
		}
	}
}

// syncRequest: blocking call returning the response object, null under an
// invalid-response fault, or throwing IOException on failure.
func syncRequest(lib *apimodel.Library, t apimodel.Target) NativeFunc {
	return func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		client, th := needObj(recv, t.Sig.Name)
		if th != nil {
			return nil, th
		}
		if !doRequest(mc, lib, client) {
			return nil, ioException(lib.Name + " request failed")
		}
		if mc.Net.invalidResponse() {
			// The hazard Checker 4 exists for: the API "succeeds" but the
			// response is unusable (modeled as null).
			return nil, nil
		}
		return newResponse(t.ResponseClass), nil
	}
}

func connectRequest(lib *apimodel.Library) NativeFunc {
	return func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		conn, th := needObj(recv, "connect")
		if th != nil {
			return nil, th
		}
		if !doRequest(mc, lib, conn) {
			return nil, ioException("connect failed")
		}
		return nil, nil
	}
}

// asyncHTTPRequest: failures and successes are routed to the handler's
// callbacks; nothing throws at the call site.
func asyncHTTPRequest(lib *apimodel.Library, t apimodel.Target) NativeFunc {
	return func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		client, th := needObj(recv, t.Sig.Name)
		if th != nil {
			return nil, th
		}
		var handler *Obj
		if t.HandlerArg < len(args) {
			handler, _ = args[t.HandlerArg].(*Obj)
		}
		if doRequest(mc, lib, client) && !mc.Net.invalidResponse() {
			return mc.InvokeCallback(handler, "onSuccess(java.lang.String)void", []Value{"body"})
		}
		thr := NewObj(android.ClassIOException)
		return mc.InvokeCallback(handler,
			"onFailure(java.lang.Throwable,java.lang.String)void", []Value{thr, "request failed"})
	}
}

func okHTTPEnqueue(lib *apimodel.Library, t apimodel.Target) NativeFunc {
	return func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		client, th := needObj(recv, t.Sig.Name)
		if th != nil {
			return nil, th
		}
		var cb *Obj
		if t.HandlerArg < len(args) {
			cb, _ = args[t.HandlerArg].(*Obj)
		}
		if doRequest(mc, lib, client) {
			resp := newResponse(apimodel.ClassOkResponse)
			if mc.Net.invalidResponse() {
				resp.Set(fValid, int64(0))
				resp.Set("status", int64(500))
			}
			return mc.InvokeCallback(cb,
				"onResponse("+apimodel.ClassOkResponse+")void", []Value{resp})
		}
		var req *Obj
		if len(args) > 0 {
			req, _ = args[0].(*Obj)
		}
		exc := NewObj(android.ClassIOException)
		return mc.InvokeCallback(cb,
			"onFailure("+apimodel.ClassOkRequest+",java.io.IOException)void", []Value{req, exc})
	}
}

// volleyAdd: RequestQueue.add dispatches to the listeners the request was
// constructed with; Volley's automatic response validation routes invalid
// responses to the error listener.
func volleyAdd(lib *apimodel.Library) NativeFunc {
	return func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		if _, th := needObj(recv, "add"); th != nil {
			return nil, th
		}
		if len(args) == 0 {
			return nil, nil
		}
		req, ok := args[0].(*Obj)
		if !ok || req == nil {
			return nil, &Thrown{Type: android.ClassNullPointerExc, Msg: "add(null request)"}
		}
		listener, _ := req.Get(fListener).(*Obj)
		errListener, _ := req.Get(fErrListn).(*Obj)
		if doRequest(mc, lib, req) && !mc.Net.invalidResponse() {
			if _, th := mc.InvokeCallback(listener,
				"onResponse(java.lang.Object)void", []Value{newResponse("java.lang.Object")}); th != nil {
				return nil, th
			}
			return req, nil
		}
		errType := apimodel.ClassVolleyTimeout
		if mc.Net.Scenario == NetOffline {
			errType = apimodel.ClassVolleyNoConn
		} else if mc.Net.invalidResponse() {
			errType = apimodel.ClassVolleyClientErr
		}
		errObj := NewObj(errType)
		if _, th := mc.InvokeCallback(errListener,
			"onErrorResponse("+apimodel.ClassVolleyError+")void", []Value{errObj}); th != nil {
			return nil, th
		}
		return req, nil
	}
}

// registerResponseNatives models the response objects' readers/checkers.
func registerResponseNatives(m *Machine) {
	readBody := func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		obj, th := needObj(recv, "read response")
		if th != nil {
			return nil, th
		}
		if obj.GetInt(fValid, 1) == 0 {
			return nil, nil
		}
		return "body", nil
	}
	isOK := func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		obj, th := needObj(recv, "check response")
		if th != nil {
			return nil, th
		}
		return obj.GetInt(fValid, 1), nil
	}
	for key := range apimodel.ResponseUseSigs {
		sig, err := jimple.ParseSigKey(key)
		if err != nil {
			continue
		}
		m.RegisterNative(sig.Class, sig.SubSigKey(), readBody)
	}
	reg := apimodel.NewRegistry()
	for _, lib := range reg.Libraries() {
		for _, rc := range lib.RespChecks {
			m.RegisterNative(rc.Sig.Class, rc.Sig.SubSigKey(), isOK)
		}
	}
	// Constructors that carry request state.
	m.RegisterNative(apimodel.ClassVolleyStringReq,
		"<init>(int,java.lang.String,"+apimodel.ClassVolleyListener+","+apimodel.ClassVolleyErrListen+")void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			obj, th := needObj(recv, "<init>")
			if th != nil {
				return nil, th
			}
			if len(args) == 4 {
				obj.Set(fMethod, args[0])
				obj.Set(fURL, args[1])
				obj.Set(fListener, args[2])
				obj.Set(fErrListn, args[3])
			}
			return nil, nil
		})
	m.RegisterNative(apimodel.ClassURL, "openConnection()"+apimodel.ClassHttpURLConn,
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			if _, th := needObj(recv, "openConnection"); th != nil {
				return nil, th
			}
			return NewObj(apimodel.ClassHttpURLConn), nil
		})
}

// registerFramework models the Android runtime pieces the apps touch.
func registerFramework(m *Machine) {
	alert := func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
		mc.Obs.UIAlerts++
		return nil, nil
	}
	for _, cls := range []string{
		android.ClassToast, android.ClassTextView, android.ClassImageView,
		android.ClassAlertDialog, android.ClassDialogFragment,
	} {
		// Any method on a UI-alert class counts as showing a message;
		// register the common ones.
		m.RegisterNative(cls, "show()void", alert)
		m.RegisterNative(cls, "setText(java.lang.CharSequence)void", alert)
		m.RegisterNative(cls, "setImageResource(int)void", alert)
	}
	m.RegisterNative(android.ClassConnectivityMgr, "getActiveNetworkInfo()"+android.ClassNetworkInfo,
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			if !mc.Net.online() {
				return nil, nil
			}
			return NewObj(android.ClassNetworkInfo), nil
		})
	m.RegisterNative(android.ClassNetworkInfo, "isConnected()boolean",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			obj, th := needObj(recv, "isConnected")
			if th != nil {
				return nil, th
			}
			_ = obj
			return b2i(mc.Net.online()), nil
		})
	m.RegisterNative(android.ClassThread, "sleep(long)void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			if len(args) > 0 {
				if ms, ok := asInt(args[0]); ok {
					mc.Obs.VirtualTimeMs += float64(ms)
					mc.Obs.Slept++
				}
			}
			return nil, nil
		})
	m.RegisterNative(android.ClassThread, "start()void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			obj, _ := recv.(*Obj)
			return mc.InvokeCallback(obj, "run()void", nil)
		})
	runArg := func(mc *Machine, args []Value, delayIdx int) (Value, *Thrown) {
		if delayIdx >= 0 && delayIdx < len(args) {
			if ms, ok := asInt(args[delayIdx]); ok {
				mc.Obs.VirtualTimeMs += float64(ms)
			}
		}
		if len(args) > 0 {
			if r, ok := args[0].(*Obj); ok {
				return mc.InvokeCallback(r, "run()void", nil)
			}
		}
		return int64(1), nil
	}
	m.RegisterNative(android.ClassHandler, "post(java.lang.Runnable)boolean",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) { return runArg(mc, args, -1) })
	m.RegisterNative(android.ClassHandler, "postDelayed(java.lang.Runnable,long)boolean",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) { return runArg(mc, args, 1) })
	m.RegisterNative(android.ClassTimer, "schedule(java.util.TimerTask,long)void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) { return runArg(mc, args, 1) })
	m.RegisterNative(android.ClassAsyncTask, "execute()void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			obj, _ := recv.(*Obj)
			for _, sub := range []string{"onPreExecute()void", "doInBackground()void", "onPostExecute()void"} {
				if _, th := mc.InvokeCallback(obj, sub, nil); th != nil {
					return nil, th
				}
			}
			return nil, nil
		})
	m.RegisterNative(android.ClassView, "setOnClickListener(android.view.View$OnClickListener)void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			// Monkey-style exploration: a registered listener gets
			// clicked once.
			if len(args) > 0 {
				if l, ok := args[0].(*Obj); ok {
					return mc.InvokeCallback(l, "onClick(android.view.View)void", []Value{nil})
				}
			}
			return nil, nil
		})
	m.RegisterNative(android.ClassIntent, "setClassName(java.lang.String)void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			obj, th := needObj(recv, "setClassName")
			if th != nil {
				return nil, th
			}
			if len(args) > 0 {
				obj.Set(fClass, args[0])
			}
			return nil, nil
		})
	m.RegisterNative(android.ClassActivity, "startActivity(android.content.Intent)void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			if len(args) == 0 {
				return nil, nil
			}
			intent, ok := args[0].(*Obj)
			if !ok || intent == nil {
				return nil, nil
			}
			target, _ := intent.Get(fClass).(string)
			if target == "" {
				return nil, nil
			}
			return mc.StartComponent(target, "onCreate(android.os.Bundle)void", []Value{nil})
		})
	m.RegisterNative(android.ClassActivity, "sendBroadcast(android.content.Intent)void",
		func(mc *Machine, recv Value, args []Value) (Value, *Thrown) {
			for _, r := range mc.Receivers {
				if _, th := mc.StartComponent(r,
					"onReceive(android.content.Context,android.content.Intent)void",
					[]Value{nil, nil}); th != nil {
					return nil, th
				}
			}
			return nil, nil
		})
}

// StartComponent constructs a component instance and runs one of its
// lifecycle methods.
func (m *Machine) StartComponent(class, subsig string, args []Value) (Value, *Thrown) {
	cls := m.H.Class(class)
	if cls == nil {
		return nil, nil
	}
	target := cls.Method(subsig)
	if target == nil || !target.HasBody() {
		return nil, nil
	}
	return m.Call(target, NewObj(class), args)
}
