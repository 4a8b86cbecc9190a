// Command revand is the netlist analysis daemon: the revan portfolio
// behind an HTTP/JSON API with a bounded job queue, a content-addressed
// report cache, and Prometheus metrics (see internal/server for the
// endpoint reference).
//
// Usage:
//
//	revand -addr :8080
//	revand -addr :8080 -workers 4 -queue 128 -cache 512 -timeout 2m
//	revand -addr :8080 -stage-cache 2048   # larger stage artifact store
//
// Every analysis runs in this process. Large designs go to /v1/jobs, and
// the report cache (-cache) and stage store (-stage-cache) make repeated
// and incremental analyses cheap.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener stops accepting
// requests, queued and running jobs drain (bounded by -drain-timeout,
// after which in-flight analyses are canceled cooperatively and finish as
// degraded reports), and the process exits 0.
//
// Exit codes: 0 after a clean (signal-driven) shutdown, 1 on a
// startup or serve failure, 2 on flag misuse.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netlistre/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its environment injected for tests: ready (if non-nil)
// receives the bound listen address once the server is accepting.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("revand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "queue worker count (0 = min(GOMAXPROCS, 4))")
		queueDepth   = fs.Int("queue", 64, "job queue depth; a full queue rejects submissions with 503")
		cacheEntries = fs.Int("cache", 256, "report cache entries (negative disables the cache)")
		stageCache   = fs.Int("stage-cache", 512, "stage artifact store entries shared across analyses (negative disables)")
		timeout      = fs.Duration("timeout", 0, "default per-analysis budget when the request sets none (0 = unbounded)")
		syncLimit    = fs.Int("sync-limit", 20000, "max netlist elements on POST /v1/analyze; larger designs must use /v1/jobs (negative disables)")
		maxBody      = fs.Int64("max-body", 32<<20, "max request body bytes")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for queued jobs before canceling them")
		readTimeout  = fs.Duration("read-timeout", 2*time.Minute, "max time to read a full request (0 disables; headers are always bounded separately)")
		sessionTTL   = fs.Duration("session-ttl", 15*time.Minute, "idle lifetime of an exploration session")
		sessionMax   = fs.Int("session-max", 64, "max live exploration sessions; the least recently used is evicted past the cap (negative = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *workers < 0 || *queueDepth < 1 {
		fmt.Fprintln(stderr, "revand: -workers must be >= 0 and -queue >= 1")
		return 2
	}
	cfg := server.Config{
		QueueWorkers:      *workers,
		QueueDepth:        *queueDepth,
		CacheEntries:      *cacheEntries,
		StageCacheEntries: *stageCache,
		MaxRequestBytes:   *maxBody,
		DefaultTimeout:    *timeout,
		MaxSyncElements:   *syncLimit,
		SessionTTL:        *sessionTTL,
		MaxSessions:       *sessionMax,
	}

	logger := log.New(stdout, "revand: ", log.LstdFlags)
	srv := server.New(cfg)
	// ReadTimeout bounds slow-loris request bodies; WriteTimeout is left
	// unset deliberately — synchronous /v1/analyze responses legitimately
	// take minutes on large designs, and cutting the write would turn a
	// finished analysis into a client-visible failure.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "revand: listen %s: %v\n", *addr, err)
		return 1
	}
	logger.Printf("serving on %s (queue depth %d, cache %d entries, stage cache %d entries)",
		ln.Addr(), *queueDepth, *cacheEntries, *stageCache)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	select {
	case sig := <-sigs:
		logger.Printf("received %v, draining (timeout %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Stop the listener and wait for active requests, then drain the
		// job queue through the portfolio's cooperative cancellation.
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("queue drain cut short: %v (in-flight jobs finished degraded)", err)
		}
		logger.Printf("drained, exiting")
		return 0
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return 0
		}
		fmt.Fprintf(stderr, "revand: serve: %v\n", err)
		return 1
	}
}
