// Command targad-router fronts a fleet of targad-serve replicas with
// the resilience layer scoring clients should not have to build
// themselves (DESIGN.md §13).
//
//	targad-router -addr :8090 \
//	  -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// POST /score accepts exactly what targad-serve accepts — JSON or
// binary application/x-targad-frame bodies — and forwards it opaquely,
// so scores through the router are bitwise-identical to a direct
// backend response. The replicas' feedback and model-admin routes
// (/feedback, /feedback/queue, /reload, /drift, /retrain) forward the
// same way. Requests carrying an X-Targad-Tenant header are pinned to
// a home replica on a consistent-hash ring (warm drift windows, stable
// batch mixes); tenantless requests round-robin. A backend over its
// bounded-load share overflows to the next ring position.
//
// One per-backend state machine (up, degraded, down, recovering) says
// whether a replica may take a request. A prober walks every replica's
// /readyz each -probe-interval, keyed to the replica's -instance-id, so
// a restarted process re-proves itself before it is trusted; a replica
// whose forwards fault -forward-fail-threshold times in a row goes
// down until probes bring it back. Failed forwards of idempotent
// operations (POST /score — scoring is idempotent — and every GET) are
// retried on the next candidate under a fleet-wide retry budget with
// full-jitter backoff; the other POSTs run exactly one attempt. The
// router answers 503 + Retry-After only when no candidate remains.
//
// /healthz, /readyz (200 while >=1 backend is selectable), /metrics
// (targad_router_* Prometheus text), and /backends (JSON fleet state)
// serve operations. SIGTERM drains in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"targad/internal/buildinfo"
	"targad/internal/fleet"
	"targad/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		backends = flag.String("backends", "", "comma-separated targad-serve base URLs (required)")

		vnodes     = flag.Int("vnodes", 128, "virtual nodes per backend on the consistent-hash ring")
		loadFactor = flag.Float64("load-factor", 1.25, "bounded-load multiple of a backend's fair share before a tenant overflows")

		probeInterval = flag.Duration("probe-interval", time.Second, "health probe period per backend")
		probeTimeout  = flag.Duration("probe-timeout", 500*time.Millisecond, "timeout of one /readyz probe")
		failThresh    = flag.Int("fail-threshold", 3, "consecutive probe failures that take a backend down")
		recoverThresh = flag.Int("recover-threshold", 2, "consecutive probe successes that bring a backend back up")

		tryTimeout  = flag.Duration("try-timeout", 2*time.Second, "timeout of one forwarded attempt")
		maxRetries  = flag.Int("max-retries", 2, "max re-forwards after the first attempt")
		retryBudget = flag.Float64("retry-budget", 0.2, "fleet-wide retry ratio: retries admitted while retries < ratio*requests + 10")
		backoffBase = flag.Duration("backoff-base", 5*time.Millisecond, "base of the full-jitter exponential backoff between attempts")
		backoffMax  = flag.Duration("backoff-max", 100*time.Millisecond, "cap of the backoff between attempts")

		fwdFailThresh = flag.Int("forward-fail-threshold", 5, "consecutive forward faults (transport error, try timeout, 5xx) that take a backend down until probes re-admit it")

		maxReqBytes = flag.Int64("max-request-bytes", 32<<20, "max request body size in bytes; larger requests are rejected with 413")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After advertised on 503 responses")
		seed        = flag.Int64("seed", 1, "seed of the backoff-jitter RNG")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	timeouts := wire.DefaultHTTPTimeouts()
	timeouts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Printf("targad-router %s\n", buildinfo.Version())
		return
	}
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "targad-router: -backends is required")
		flag.Usage()
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	r, err := fleet.New(fleet.Config{
		Backends:             urls,
		VNodes:               *vnodes,
		LoadFactor:           *loadFactor,
		ProbeInterval:        *probeInterval,
		ProbeTimeout:         *probeTimeout,
		FailThreshold:        *failThresh,
		RecoverThreshold:     *recoverThresh,
		TryTimeout:           *tryTimeout,
		MaxRetries:           *maxRetries,
		RetryBudget:          *retryBudget,
		BackoffBase:          *backoffBase,
		BackoffMax:           *backoffMax,
		ForwardFailThreshold: *fwdFailThresh,
		MaxBodyBytes:         *maxReqBytes,
		RetryAfter:           *retryAfter,
		Seed:                 *seed,
		Logf:                 log.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "targad-router: %v\n", err)
		os.Exit(1)
	}

	// The same hardened listener targad-serve uses: header/read/write/
	// idle timeouts close the slowloris window.
	httpSrv := wire.NewHTTPServer(*addr, r.Handler(), timeouts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("targad-router %s: fronting %d backends on %s (retries<=%d budget=%.2f forward-fail=%d)",
		buildinfo.Version(), len(urls), *addr, *maxRetries, *retryBudget, *fwdFailThresh)

	select {
	case <-ctx.Done():
		log.Printf("targad-router: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("targad-router: shutdown: %v", err)
		}
		r.Close()
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			r.Close()
			fmt.Fprintf(os.Stderr, "targad-router: %v\n", err)
			os.Exit(1)
		}
	}
}
