// Command targad-serve exposes a persisted TargAD model (written with
// targad -save, or core.Model.Save) as an HTTP JSON scoring service.
//
//	targad-serve -model model.gob -addr :8080
//
// Score instances (one JSON row per instance; scores are S^tar,
// decisions the 3-way normal/target/non-target call):
//
//	curl -s localhost:8080/score -d '{
//	  "instances": [[0.1, 0.7, ...], [0.9, 0.2, ...]],
//	  "strategy": "ED",
//	  "probabilities": true
//	}'
//
// Clients that want to skip JSON entirely can POST the same endpoint
// with Content-Type application/x-targad-frame: a compact binary frame
// of row-major little-endian float64 (or float32) features, answered
// with a binary score frame (DESIGN.md "Wire protocol"). The binary
// path decodes into pooled buffers with near-zero allocation and, with
// -precision f32, feeds float32 frames straight into the SIMD kernels.
//
// Every request scores on its own handler, in inference passes of at
// most -max-batch rows, so a request costs one pass of memory whatever
// its size. At most -queue requests score at once; past that requests
// are shed with 429 + Retry-After. Bodies beyond -max-request-bytes
// are rejected with 413. The model hot-reloads from -model on SIGHUP
// or POST /reload with zero failed requests — in-flight requests
// finish on the model they were admitted on. /healthz, /readyz,
// /metrics (Prometheus text), /debug/vars, and (with -pprof)
// /debug/pprof serve operations.
//
// By default scoring runs in float64, bitwise-identical to offline
// scoring of the same model file. -precision f32 serves on the float32
// inference path — the packed GEMM runs AVX2/FMA kernels where the CPU
// supports them — trading the bitwise guarantee for a documented score
// tolerance (DESIGN.md "Numerical precision model") and a several-fold
// throughput gain on large batches.
//
// Models saved by recent builds carry a training-time reference
// profile; when present, the server tracks feature/score drift and
// decision-mix deviation over a sliding window (GET /drift, /metrics
// gauges). The drift status is a report: /readyz ignores it, and no
// retrain starts on it. While a retrain cycle evaluates its candidate,
// the candidate re-scores a -shadow-sample fraction of live passes on
// the request's handler, counted against -queue, and /drift and the
// targad_shadow_* metrics report the deltas; only the cycle promotes or
// discards it. A -acquire-budget queue is offered its sampled passes
// the same way.
//
// The closed feedback loop (DESIGN.md §14) is opt-in: -feedback-dir
// mounts POST /feedback (analyst verdicts land in a crash-safe
// append-only store), -acquire-budget mounts GET /feedback/queue (the
// rows whose labels would help the model most, by active-learning
// informativeness), and a store plus -retrain-labeled and
// -retrain-unlabeled arms the retrain cycle: POST /retrain fits a
// candidate on the verdict-merged training set, shadow-evaluates it on
// live traffic, and promotes it automatically when it passes the
// -retrain-max-flip / -retrain-max-delta gate. A promoted model
// overwrites -model, so a restart serves it again. The retraining CSVs
// without -feedback-dir exit 2.
//
// -model-dir serves every model a manifest.json lists from one process
// (DESIGN.md §15), routed by the X-Targad-Model and X-Targad-Tenant
// headers. Each model gets the stack single-model mode builds
// (registry.OpenStack, one set of arming rules): its own verdict store
// under -feedback-dir, its own -acquire-budget queue, and retraining
// from the CSVs its manifest entry names, so -retrain-labeled and
// -retrain-unlabeled with -model-dir exit 2.
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
	"syscall"
	"time"

	"targad/internal/buildinfo"
	"targad/internal/core"
	"targad/internal/mat"
	"targad/internal/monitor"
	"targad/internal/parallel"
	"targad/internal/registry"
	"targad/internal/retrain"
	"targad/internal/serve"
)

func main() {
	var (
		modelPath   = flag.String("model", "", "saved model file to serve (required unless -model-dir)")
		modelDir    = flag.String("model-dir", "", "multi-model registry directory holding manifest.json; serves every manifested model from one process (mutually exclusive with -model)")
		maxHot      = flag.Int("max-hot-models", 4, "registry mode: models kept loaded at once; past it the least-recently-used is evicted")
		addr        = flag.String("addr", ":8080", "listen address")
		maxBatch    = flag.Int("max-batch", 64, "max rows per inference pass; a larger request scores in several passes")
		queueDepth  = flag.Int("queue", 256, "most requests scoring at once; beyond it requests shed with 429")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After advertised on shed responses")
		maxReqBytes = flag.Int64("max-request-bytes", 32<<20, "max request body size in bytes; larger requests are rejected with 413")
		strategy    = flag.String("strategy", "ED", "default identification strategy (MSP, ES, ED)")
		precision   = flag.String("precision", "f64", "inference precision: f64 (bitwise-identical to offline scoring) or f32 (faster SIMD kernels, tolerance-bounded scores)")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		noMonitor     = flag.Bool("no-monitor", false, "disable drift monitoring even when the model carries a profile")
		monitorWindow = flag.Int("monitor-window", 0, "drift window size in scored rows (0 = monitor default)")
		driftWarn     = flag.Float64("drift-warn", 0, "PSI warn threshold (0 = monitor default)")
		driftAlarm    = flag.Float64("drift-alarm", 0, "PSI alarm threshold (0 = monitor default)")
		shadowSample  = flag.Float64("shadow-sample", 0.25, "fraction of live batches a shadow model re-scores")
		workers       = flag.Int("workers", 0, "compute worker pool size (default GOMAXPROCS; TARGAD_WORKERS env also honored)")
		instanceID    = flag.String("instance-id", "", "identity stamped on /healthz and /readyz for fleet probers (default host-pid-starttime)")
		showVersion   = flag.Bool("version", false, "print version and exit")

		feedbackDir   = flag.String("feedback-dir", "", "analyst verdict store directory; mounts POST /feedback (empty disables; registry mode: per-model stores under it)")
		feedbackTTL   = flag.Duration("feedback-ttl", 0, "drop verdicts older than this from retraining (0 keeps forever)")
		acquireBudget = flag.Int("acquire-budget", 0, "active-learning queue capacity; mounts GET /feedback/queue (0 disables)")
		acquireSample = flag.Float64("acquire-sample", 0.25, "fraction of live batches offered to the acquisition queue")

		retrainLabeled   = flag.String("retrain-labeled", "", "CSV of labeled target anomalies for retraining (type index in first column; -model only)")
		retrainUnlabeled = flag.String("retrain-unlabeled", "", "CSV of unlabeled instances for retraining (features only; -model only)")
		retrainHeader    = flag.Bool("retrain-csv-header", false, "retraining CSVs start with a header row")
		retrainEpochs    = flag.Int("retrain-epochs", 30, "training epochs for retrained candidates")
		retrainLR        = flag.Float64("retrain-lr", 1e-3, "learning rate for retrained candidates")
		retrainK         = flag.Int("retrain-k", 0, "normal clusters for retrained candidates (0 = elbow method)")
		retrainSeed      = flag.Int64("retrain-seed", 1, "random seed for retrained candidates (fixed seed = bitwise-reproducible retrains)")
		retrainMaxFlip   = flag.Float64("retrain-max-flip", 0.2, "promotion gate: max fraction of sampled decisions a candidate may flip")
		retrainMaxDelta  = flag.Float64("retrain-max-delta", 0.15, "promotion gate: max mean |S^tar delta| over sampled rows")
		retrainMinRows   = flag.Int64("retrain-min-shadow-rows", 128, "sampled rows a candidate must re-score before the gate is judged")
	)
	timeouts := serve.DefaultHTTPTimeouts()
	timeouts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Printf("targad-serve %s\n", buildinfo.Version())
		return
	}
	if (*modelPath == "") == (*modelDir == "") {
		fmt.Fprintln(os.Stderr, "targad-serve: exactly one of -model or -model-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	strat, ok := serve.ParseStrategy(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "targad-serve: unknown -strategy %q (want MSP, ES, or ED)\n", *strategy)
		os.Exit(2)
	}
	prec, ok := serve.ParsePrecision(*precision)
	if !ok {
		fmt.Fprintf(os.Stderr, "targad-serve: unknown -precision %q (want f64 or f32)\n", *precision)
		os.Exit(2)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	// One set of retraining flag rules for both modes; the arming
	// itself is registry.OpenStack's.
	retrainFlags := *retrainLabeled != "" || *retrainUnlabeled != ""
	var flagErr string
	switch {
	case *modelDir != "" && retrainFlags:
		flagErr = "-retrain-labeled and -retrain-unlabeled do not apply to -model-dir (each manifest entry names its own retraining CSVs)"
	case retrainFlags && *feedbackDir == "":
		flagErr = "retraining needs -feedback-dir (verdicts are the retraining signal)"
	case (*retrainLabeled == "") != (*retrainUnlabeled == ""):
		flagErr = "retraining needs both -retrain-labeled and -retrain-unlabeled (the base training set verdicts merge into)"
	}
	if flagErr != "" {
		fmt.Fprintln(os.Stderr, "targad-serve: "+flagErr)
		os.Exit(2)
	}

	base := serve.Config{
		MaxBatch:     *maxBatch,
		QueueDepth:   *queueDepth,
		RetryAfter:   *retryAfter,
		MaxBodyBytes: *maxReqBytes,
		Strategy:     strat,
		Precision:    prec,
		EnablePprof:  *enablePprof,
		InstanceID:   *instanceID,
		Monitor: monitor.Config{
			WindowRows: *monitorWindow,
			WarnPSI:    *driftWarn,
			AlarmPSI:   *driftAlarm,
		},
		DisableMonitor: *noMonitor,
		ShadowSample:   *shadowSample,
		AcquireSample:  *acquireSample,
		Logf:           log.Printf,
	}
	fitCfg := core.DefaultConfig()
	fitCfg.K = *retrainK
	fitCfg.AEEpochs = *retrainEpochs
	fitCfg.ClfEpochs = *retrainEpochs
	fitCfg.AELR = *retrainLR
	fitCfg.ClfLR = *retrainLR
	rt := retrain.Config{
		Fit:           fitCfg,
		Seed:          *retrainSeed,
		FeedbackTTL:   *feedbackTTL,
		MaxFlipRate:   *retrainMaxFlip,
		MaxScoreDelta: *retrainMaxDelta,
		MinShadowRows: *retrainMinRows,
		Logf:          log.Printf,
	}

	var (
		httpHandler http.Handler
		reload      func() error
		closeAll    func()
		serving     string
	)
	if *modelDir != "" {
		// Registry mode: one process hosts every manifested model,
		// routed by the X-Targad-Model / X-Targad-Tenant headers, with
		// at most -max-hot-models loaded at once. Each model gets the
		// stack single-model mode builds, with its store under
		// -feedback-dir and its retraining CSVs from its manifest
		// entry; all retrain cycles share one fit slot, so retrains of
		// several models never fork parallel fits.
		reg, err := registry.New(registry.Config{
			Dir:           *modelDir,
			MaxHot:        *maxHot,
			Base:          base,
			FeedbackRoot:  *feedbackDir,
			AcquireBudget: *acquireBudget,
			Retrain:       &rt,
			Logf:          log.Printf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "targad-serve: %v\n", err)
			os.Exit(1)
		}
		httpHandler = reg.Handler()
		reload = reg.ReloadHot
		closeAll = reg.Close
		serving = *modelDir + " (registry, default " + reg.DefaultModel() + ")"
	} else {
		st, err := registry.OpenStack(base, registry.ModelSpec{
			Path:             *modelPath, // a promoted candidate overwrites it, so a restart serves it
			RetrainLabeled:   *retrainLabeled,
			RetrainUnlabeled: *retrainUnlabeled,
			RetrainCSVHeader: *retrainHeader,
		}, *feedbackDir, *acquireBudget, &rt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "targad-serve: %v\n", err)
			os.Exit(1)
		}
		httpHandler = st.Server.Handler()
		reload = func() error { _, err := st.Server.Reload(); return err }
		closeAll = st.Close
		serving = *modelPath
	}

	// The hardened listener: header/read/write/idle timeouts close the
	// slowloris window a bare http.Server leaves open (flag-tunable;
	// targad-router builds its listener the same way).
	httpSrv := serve.NewHTTPServer(*addr, httpHandler, timeouts)

	// SIGHUP hot-reloads the model file(s); ^C/SIGTERM shut down
	// gracefully, draining in-flight requests before exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reload(); err != nil {
				log.Printf("targad-serve: SIGHUP reload failed, keeping current model: %v", err)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("targad-serve %s: serving %s on %s (batch<=%d queue=%d strategy=%s precision=%s kernel=%s)",
		buildinfo.Version(), serving, *addr, *maxBatch, *queueDepth, strat, prec, mat.KernelName())

	select {
	case <-ctx.Done():
		log.Printf("targad-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("targad-serve: shutdown: %v", err)
		}
		closeAll()
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			closeAll()
			fmt.Fprintf(os.Stderr, "targad-serve: %v\n", err)
			os.Exit(1)
		}
	}
}
