#!/usr/bin/env bash
# Repository CI gate: static checks, build, the full test suite, and a
# race-detector smoke over the parallel compute substrate.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# Cross-build gate for the f32 SIMD kernels: the noasm tag must keep
# every package compiling against the pure-Go kernels, and the arm64
# target (no amd64 assembly at all) must vet clean — both catch a
# kernel API drifting without its fallback.
echo "== cross-build gate (noasm, arm64) =="
go build -tags noasm ./...
GOARCH=arm64 go vet ./...

echo "== go test =="
go test ./...

# bench/ is its own module (it requires the root through a replace
# directive), so the root ./... patterns above never compile it; vet
# and test it explicitly so an API change its harness calls cannot
# break `bash bench/run.sh` unnoticed.
echo "== bench module =="
go -C bench vet ./...
go -C bench test ./...

# Both precisions on the pure-Go kernels: the f32 ulp-bound property
# tests, the f64 bitwise kernel tests (GEMM tails, k-means assignment),
# the fixture tolerance pins, the serving tolerance suite and the
# kernel-swap fit all rerun with the assembly compiled out, so CI
# covers both kernel implementations even on machines where init
# selects AVX2. The fit-swap test reruns once more with the assembly
# compiled in but switched off at runtime (TARGAD_NOSIMD=1).
echo "== portable-kernel suite (-tags noasm, TARGAD_NOSIMD=1) =="
go test -tags noasm -count=1 ./internal/mat ./internal/cluster
go test -tags noasm -count=1 \
    -run 'TestF32Tolerance|TestInferF32|TestEnableF32|TestFitKernelSwap' ./internal/core
go test -tags noasm -count=1 -run 'TestServeF32' ./internal/serve
TARGAD_NOSIMD=1 go test -count=1 -run 'TestFitKernelSwap|TestOuterF64|TestNearestRows' \
    ./internal/core ./internal/mat

# Race smoke: exercise the worker-pool kernels (mat GEMMs including the
# packed-buffer blocked paths, k-means assignment, softmax batching),
# the nn layer-workspace reuse, the concurrent per-cluster AE training,
# the drift-monitoring window (concurrent Observe vs Snapshot), the
# asm-vs-Go kernel-swap fit, and the full serving stack (micro-batcher,
# replica-pool inference, hot reload under load, shedding, shadow
# evaluation) with a multi-worker pool under the race detector. The zero-alloc assertions self-skip under
# -race (the instrumentation allocates); the core package is scoped to
# its parallel-path determinism and concurrent-inference tests to keep
# the smoke short — the full core suite already ran above.
echo "== race smoke (TARGAD_WORKERS=4) =="
TARGAD_WORKERS=4 go test -race -short -count=1 \
    ./internal/parallel ./internal/mat ./internal/cluster ./internal/nn \
    ./internal/serve ./internal/monitor ./internal/fleet \
    ./internal/feedback ./internal/activelearn ./internal/retrain \
    ./internal/registry
TARGAD_WORKERS=4 go test -race -short -count=1 \
    -run 'TrainPerCluster' ./internal/autoencoder
TARGAD_WORKERS=4 go test -race -short -count=1 \
    -run 'ParallelSerialIdentical|TestInfer|TestShareParams|TestFitKernelSwap' ./internal/core

# Fault-injection suite: cancellation, checkpoint/resume equivalence,
# NaN guards, worker panic/crash containment, and checkpoint write
# failure, each surfacing as its typed error. These run as part of the
# full suite above too; this explicit pass keeps the failure-mode
# contract visible in CI output and runs the worker-crash fallback
# with a multi-worker pool.
echo "== fault-injection suite =="
go test -count=1 \
    -run 'TestCheckpoint|TestFitCancellation|TestClassifierNaN|TestAutoencoderNaN|TestWorkerPanic' \
    ./internal/core
TARGAD_WORKERS=4 go test -count=1 -run 'Fault|Crash|Panic|Slow' \
    ./internal/parallel
go test -count=1 -run 'TestFinite|TestDiverged|TestNonFiniteParam|TestNumericalError' \
    ./internal/nn
go test -count=1 -run 'TestSaturatedQueueSheds|TestReloadFailureKeepsServing|TestDriftLifecycle|TestBinaryFrameFaults|TestJSONBodyLimit413|TestCanceledJobsDroppedBeforeDispatch|TestGracefulDrainMixedLoad' \
    ./internal/serve
# Closed-loop acceptance: the feedback store's truncate-at-every-byte
# crash recovery, and the end-to-end lifecycle — verdicts over POST
# /feedback, injected drift traffic alarming the window, automatic
# retrain on the merged verdicts, shadow evaluation, gated
# auto-promote (plus the gate-failure path keeping the old model).
go test -count=1 -run 'TestCrashRecoveryEveryPrefix|TestFeedbackLifecycle|TestRetrainGateFailureKeepsServing' \
    ./internal/feedback ./internal/retrain
# Registry fault suite: LRU eviction racing an in-flight batch on the
# victim (the request must finish with correct scores and the model
# must score bitwise-identically after re-load), and an injected
# cold-load failure (internal/faultinject registry/load-fail) that
# errors the request, counts, and leaves nothing half-built.
go test -count=1 -run 'TestRegistryEvictUnderLoad|TestRegistryLoadFailure' \
    ./internal/registry

# Fleet chaos suite: targeted network probes (fleet/backend-latency,
# -5xx, -drop, -flap) kill, stall, and flap replicas behind the router
# mid-load; the suite asserts zero client-visible failures while at
# least one replica stays healthy, the full circuit-breaker lifecycle,
# hedge cancellation of the losing request, and bitwise-identical
# scores routed vs direct.
echo "== fleet chaos suite =="
go test -count=1 \
    -run 'TestChaosKillStallFlap|TestCircuitBreakerLifecycle|TestHedgeCancelsLoser|TestNoCandidate503|TestRoutedScoresBitwiseIdentical' \
    ./internal/fleet

# Fuzz smoke: 10s of coverage-guided fuzzing over the CSV loader and
# the binary wire-frame decoder (the seed corpora always run in the
# full suite; this explores beyond them).
echo "== fuzz smoke (FuzzLoadCSV + FuzzDecodeFrame, 10s each) =="
go test -fuzz FuzzLoadCSV -fuzztime 10s -run '^$' ./internal/dataset
go test -fuzz FuzzDecodeFrame -fuzztime 10s -run '^$' ./internal/wire

# Allocation-budget smoke: one iteration of each hot-path benchmark
# with -benchmem, failing if allocs/op regresses above its budget. The
# training budgets are ~2x steady-state measurements (benchtime=1x
# includes first-call workspace warm-up; TargADFit's includes the
# PR5 profile capture at the end of Fit), so real regressions — a new
# per-batch allocation in a training loop is thousands of allocs/op —
# trip immediately while warm-up noise does not. The monitor Observe
# budget is exactly 0: the serving-path drift accumulator must never
# allocate.
echo "== allocation budgets (benchtime=1x, workers=1) =="
go test -run '^$' \
    -bench 'BenchmarkTargADFit|BenchmarkAutoencoderEpoch|BenchmarkMatMul' \
    -benchtime 1x -benchmem -cpu 1 -timeout 20m . | tee /tmp/targad_alloc_smoke.txt
go test -run '^$' -bench 'BenchmarkMonitorObserve' \
    -benchmem -cpu 1 ./internal/monitor | tee -a /tmp/targad_alloc_smoke.txt
# The binary serving path budget (<=9 allocs/op, measured in-process so
# net/http client overhead stays out of the number) is the PR7
# zero-copy acceptance gate; the HTTP-suffixed variant is deliberately
# outside the pattern. The WithAcquisition twin (PR9) holds the same
# budget with an acquisition queue armed: the sampler's non-sampled
# path must add zero allocations.
go test -run '^$' -bench 'BenchmarkServeScoreBinary/|BenchmarkServeScoreWithAcquisition' \
    -benchmem -cpu 1 ./internal/serve | tee -a /tmp/targad_alloc_smoke.txt
# The registry twin (PR10) holds the identical budget on the
# tenantless default route through the multi-model handler: the
# single-model serving path must gain ZERO allocations from the
# registry sitting in front of it.
go test -run '^$' -bench 'BenchmarkRegistryScoreBinary$' \
    -benchmem -cpu 1 ./internal/registry | tee -a /tmp/targad_alloc_smoke.txt
awk '
/^Benchmark/ {
    name = $1; allocs = $(NF - 1)
    budget = -1
    if (name ~ /TargADFit/)          budget = 3600
    if (name ~ /AutoencoderEpoch/)   budget = 50
    if (name ~ /MatMul/)             budget = 10
    if (name ~ /MonitorObserve/)     budget = 0
    if (name ~ /ServeScoreBinary\//) budget = 9
    if (name ~ /ServeScoreWithAcquisition/) budget = 9
    if (name ~ /RegistryScoreBinary/) budget = 9
    if (budget >= 0 && allocs + 0 > budget) {
        printf "ALLOC REGRESSION: %s at %d allocs/op exceeds budget %d\n", name, allocs, budget
        bad = 1
    }
}
END { exit bad }' /tmp/targad_alloc_smoke.txt

echo "CI OK"
