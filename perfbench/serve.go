package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// liveServer is an in-process nchecker scan service behind a loopback
// listener, configured as `nchecker serve -cache <dir>` is by default:
// one job slot, cache mode rw.
type liveServer struct {
	srv    *server.Server
	http   *http.Server
	served chan error // Serve's return value
	base   string
	client *http.Client
}

func startServer(cacheDir string) (*liveServer, error) {
	srv := server.New(server.Config{
		Scan:   core.Options{CacheDir: cacheDir, CacheMode: core.CacheRW},
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, drains the job pool, and
// waits for the serve goroutine to return.
func (s *liveServer) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// post is one POST /scansync round trip; its time to verdict ends when
// the response body has been read. scan is the server's own scan window
// (the job's Finished − Started), used for the server's overhead.
func (s *liveServer) post(in *input) verdict {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/scansync?name="+url.QueryEscape(in.name),
		"application/octet-stream", bytes.NewReader(in.data))
	if err != nil {
		return verdict{in: in, lat: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	v := verdict{in: in, lat: time.Since(t0)}
	if err != nil {
		v.err = err
		return v
	}
	if resp.StatusCode != http.StatusOK {
		v.err = fmt.Errorf("POST /scansync: %s: %s", resp.Status, bytes.TrimSpace(body))
		return v
	}
	var job server.Job
	if err := json.Unmarshal(body, &job); err != nil {
		v.err = fmt.Errorf("decode job: %w", err)
		return v
	}
	if job.Status != server.StatusDone || job.Degraded {
		v.err = fmt.Errorf("job status %s degraded=%v: %s", job.Status, job.Degraded, job.Error)
		return v
	}
	v.reports, v.text = job.Reports, job.ReportText
	if job.Started != nil && job.Finished != nil {
		v.scan = job.Finished.Sub(*job.Started)
	}
	return v
}
