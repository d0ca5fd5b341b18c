// Command ftpm-serve exposes the ftpm library as a long-running mining
// service: datasets are uploaded once as CSV and mined concurrently under
// different parameterizations through a versioned JSON/NDJSON HTTP API
// with cancellable jobs, real-time job event streams, and per-tenant
// fair-share scheduling.
//
// Usage:
//
//	ftpm-serve -addr :8080 -workers 4 -queue 64 -shards 8 -data /var/lib/ftpm \
//	  -tenant-max-queued 16 -tenant-weights gold=3,free=1
//
// With -data set the service is durable and out-of-core: each uploaded
// (or appended) dataset is sealed into an immutable columnar segment
// file under <data>/segments and served from a read-only memory map —
// the heap holds no per-sample payload — while the fsync'd write-ahead
// log records only metadata plus segment references, alongside the job
// log (result documents included) and periodic streamed snapshots. On
// restart the segments are mapped back (a footer read each, not a
// payload replay) and the log replays; jobs that were queued or running
// when the process died re-queue against their tenant and re-run from
// scratch (mining is deterministic, so the re-run yields the same result
// document), and job event ids continue past their pre-restart values so
// Last-Event-ID resume survives the bounce. Without -data the service is
// purely in-memory, as before.
//
// Quick tour with curl (every route lives under /v1; any other path
// answers 404 not_found):
//
//	curl -X POST --data-binary @energy.csv 'localhost:8080/v1/datasets?name=energy&threshold=0.05'
//	curl -X POST -d '{"dataset_id":"ds-1","min_support":0.2,"min_confidence":0.5,"num_windows":24}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/job-1
//	curl 'localhost:8080/v1/jobs/job-1/patterns?limit=50'
//	curl -X DELETE localhost:8080/v1/jobs/job-1
//
// Follow a job live instead of polling — Server-Sent Events by default
// (curl -N keeps the stream unbuffered), NDJSON with the right Accept
// header, and Last-Event-ID resumes after a disconnect without losing or
// repeating a transition. /v1/events is the firehose across all jobs:
//
//	curl -N localhost:8080/v1/jobs/job-1/events
//	curl -N -H 'Accept: application/x-ndjson' localhost:8080/v1/jobs/job-1/events
//	curl -N -H 'Last-Event-ID: 7' localhost:8080/v1/jobs/job-1/events
//	curl -N localhost:8080/v1/events
//
// Every request may carry an X-Tenant header (default tenant otherwise).
// Tenants share the mining budget by weight, and a tenant past its queued
// quota is shed with 429 plus a Retry-After hint — the polite client
// dance is:
//
//	curl -sS -D- -H 'X-Tenant: free' -d '{...}' localhost:8080/v1/jobs
//	  → HTTP/1.1 429 Too Many Requests
//	  → Retry-After: 12
//	  → {"error":{"code":"quota_exceeded","message":"tenant \"free\" has 16 queued jobs (the quota); retry later"}}
//	sleep 12   # then submit again
//
// As new samples arrive, append them instead of re-uploading — NDJSON
// rows by default, or a CSV chunk with ?format=csv. Rows must continue
// the dataset's sampling grid; each successful append bumps the
// dataset's generation and the next mine reuses everything the new
// samples didn't touch:
//
//	curl -X POST localhost:8080/v1/datasets/ds-1/append --data-binary \
//	  '{"time":86400,"values":{"Kitchen":0.07,"Toaster":0.0}}'
//	curl -X POST --data-binary @delta.csv 'localhost:8080/v1/datasets/ds-1/append?format=csv'
//
// /v1/healthz (liveness) answers 200 while the process serves HTTP;
// /v1/readyz (readiness) answers 200 only while the server accepts work —
// not shutting down and not in degraded read-only mode after a fatal
// storage fault. Point load-balancer readiness checks at /v1/readyz;
// -ready-timeout additionally gates startup on the same signal.
//
// Profiles on demand: -debug-addr serves net/http/pprof on a listener of
// its own, off when empty. The API listener never mounts it, so bind it
// to a loopback or otherwise private address:
//
//	ftpm-serve -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof 'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
//
// See internal/server for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ftpm/internal/server"
)

// parseWeights turns a "name=weight,name=weight" flag into the tenant
// weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant weight %q (want name=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q (want a positive integer)", pair)
		}
		weights[name] = w
	}
	return weights, nil
}

// debugMux serves net/http/pprof's handlers. It is mounted only on the
// -debug-addr listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveDebug serves debugMux on l until the returned server is closed.
func serveDebug(l net.Listener, logger *log.Logger) *http.Server {
	hs := &http.Server{Handler: debugMux(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("debug listener: %v", err)
		}
	}()
	return hs
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "mining worker pool size (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", 64, "job queue depth; submits beyond it get 503")
		maxUpload     = flag.Int64("max-upload", 64<<20, "maximal dataset upload size in bytes")
		threshold     = flag.Float64("threshold", 0.05, "default On/Off threshold for numeric uploads")
		shards        = flag.Int("shards", 0, "default shard count for uploads (0 = GOMAXPROCS); shards parse, symbolize and cut windows in parallel, and mining runs once over the merged view")
		data          = flag.String("data", "", "data directory for restart recovery (snapshot + WAL); empty runs purely in memory")
		tenantQueued  = flag.Int("tenant-max-queued", 0, "per-tenant queued-job quota; submits beyond it get 429 + Retry-After (0 = the global queue depth)")
		tenantRunning = flag.Int("tenant-max-running", 0, "per-tenant running-job cap (0 = bounded only by the worker pool)")
		tenantWeights = flag.String("tenant-weights", "", "fair-share weights as name=weight,... (unlisted tenants weigh 1)")
		eventRing     = flag.Int("event-ring", 0, "job events retained for stream replay/resume (0 = 1024)")
		maxStreamSubs = flag.Int("max-stream-subscribers", 0, "concurrent firehose (/v1/events) streams allowed; connections beyond it get 429 (0 = unlimited)")
		readyTimeout  = flag.Duration("ready-timeout", 0, "max time to wait for the server to report ready before serving; 0 skips the gate (GET /v1/readyz polls the same signal)")
		debugAddr     = flag.String("debug-addr", "", "listen address for net/http/pprof profiles, separate from -addr; empty disables profiling")
	)
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("ftpm-serve: -tenant-weights: %v", err)
	}

	logger := log.New(os.Stderr, "ftpm-serve: ", log.LstdFlags)

	// The signal context doubles as the server's BaseContext: on
	// SIGTERM, queued and running jobs observe cancellation immediately
	// instead of mining on until the shutdown deadline forces them out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(server.Options{
		BaseContext:          ctx,
		Workers:              *workers,
		QueueDepth:           *queue,
		MaxUploadBytes:       *maxUpload,
		DefaultThreshold:     threshold,
		DefaultShards:        *shards,
		DataDir:              *data,
		TenantMaxQueued:      *tenantQueued,
		TenantMaxRunning:     *tenantRunning,
		TenantWeights:        weights,
		EventRing:            *eventRing,
		MaxStreamSubscribers: *maxStreamSubs,
		Logger:               logger,
	})
	if err != nil {
		logger.Fatal(err)
	}

	// -ready-timeout gates listening on readiness: recovery happens in
	// server.New, so once New returns the signal is normally immediate —
	// the gate exists to refuse to serve a process that came up already
	// degraded (e.g. a full disk at first WAL touch), which orchestrators
	// treat as a failed start rather than a live-but-broken backend.
	if *readyTimeout > 0 {
		deadline := time.Now().Add(*readyTimeout)
		for !srv.Ready() {
			if time.Now().After(deadline) {
				srv.Close()
				logger.Fatalf("server not ready within %s", *readyTimeout)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	if *debugAddr != "" {
		l, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Close()
			logger.Fatalf("-debug-addr: %v", err)
		}
		defer serveDebug(l, logger).Close()
		logger.Printf("profiles on http://%s/debug/pprof/", l.Addr())
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown waits for in-flight requests, and an event stream is
	// in-flight until its client goes away: close the streams so Shutdown
	// can finish inside its deadline.
	hs.RegisterOnShutdown(srv.CloseStreams)

	go func() {
		<-ctx.Done()
		logger.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	logger.Printf("listening on %s (workers=%d queue=%d tenant-max-queued=%d tenant-max-running=%d)",
		*addr, *workers, *queue, *tenantQueued, *tenantRunning)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	srv.Close()
}
