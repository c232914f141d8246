// Package testutil is the repository's shared end-to-end test harness:
// the helpers the multi-process suites (internal/server's fleet tests,
// internal/cachestore's cross-process tests, scripts/servesmoke and
// scripts/fleetsmoke) previously duplicated — fixture app construction,
// ready-file handshakes, ephemeral-port allocation, scan-service client
// polling, and child-process spawn/drain management.
//
// The package deliberately avoids importing "testing": the spawn helpers
// accept the small TB interface instead, so the CI smoke clients (plain
// `package main` programs driven by scripts/check.sh) can share the same
// code paths the Go tests use.
package testutil

import (
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/jimple"
)

// TB is the subset of *testing.T the harness needs. Keeping it an
// interface lets non-test binaries (the smoke clients) link testutil
// without pulling in the testing package.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
	TempDir() string
	Cleanup(func())
	Failed() bool
}

// FixtureApp encodes the canonical buggy fixture app every end-to-end
// suite scans: one Activity firing a request with no connectivity check,
// no timeout configuration, and no response handling — it must always
// produce warnings. The shape matches internal/core's fixture so report
// expectations line up across suites.
func FixtureApp() ([]byte, error) {
	prog, err := jimple.Parse(`class demo.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "http://example.com"
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    return
  }
}`)
	if err != nil {
		return nil, err
	}
	man := &android.Manifest{Package: "demo", Activities: []string{"demo.Main"}}
	man.Normalize()
	return apk.Encode(&apk.App{Manifest: man, Program: prog})
}

// MustFixtureApp is FixtureApp for tests: failures abort via t.
func MustFixtureApp(t TB) []byte {
	t.Helper()
	data, err := FixtureApp()
	if err != nil {
		t.Fatalf("testutil: build fixture app: %v", err)
	}
	return data
}

// WaitAddrFile polls for a server's -ready-file and returns the bound
// address written there. It is the client half of the ready-file
// handshake `nchecker serve`/`nchecker coord` implement for scripts that
// start servers on ephemeral ports (-addr 127.0.0.1:0).
func WaitAddrFile(path string, deadline time.Time) (string, error) {
	for {
		if b, err := os.ReadFile(path); err == nil {
			if addr := strings.TrimSpace(string(b)); addr != "" {
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("testutil: ready file %s never appeared", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// EphemeralAddr reserves an ephemeral localhost TCP address and releases
// it immediately, returning "127.0.0.1:port". It is inherently racy (the
// OS may hand the port to someone else before the caller binds), so
// prefer the -addr :0 + ready-file handshake where the server supports
// it; this exists for tools that must know their address up front.
func EphemeralAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("testutil: reserve ephemeral port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// ShadowModelApp is Jimple source for an app that redefines two classes
// of the framework and library-stub model. android.app.Service moves
// from under android.content.Context to under android.os.Handler, so the
// framework's IntentService changes supertypes too. com.android.volley
// .Request gains concrete methods, which the stub subclass StringRequest
// and an app subclass inherit. No generated corpus app shadows a model
// class, so this is the fixture for the shadowing rule of layered
// hierarchies.
const ShadowModelApp = `class android.app.Service extends android.os.Handler implements java.lang.Runnable {
  method onCreate()void {
    return
  }
  method run()void {
    return
  }
}
class com.android.volley.Request extends java.lang.Object {
  method deliverError(com.android.volley.VolleyError)void {
    return
  }
  method retry()void {
    return
  }
}
class com.fx.Sync extends android.app.IntentService {
  method onHandleIntent(android.content.Intent)void {
    local self com.fx.Sync
    local r com.fx.MyReq
    self = this com.fx.Sync
    virtualinvoke self android.app.Service.onCreate()void
    virtualinvoke self android.os.Handler.post(java.lang.Runnable)boolean self
    r = new com.fx.MyReq
    virtualinvoke r com.android.volley.Request.retry()void
    return
  }
}
class com.fx.MyReq extends com.android.volley.toolbox.StringRequest {
  method retry()void {
    local self com.fx.MyReq
    self = this com.fx.MyReq
    specialinvoke self com.android.volley.Request.retry()void
    virtualinvoke self com.android.volley.Request.deliverError(com.android.volley.VolleyError)void null
    return
  }
}`
