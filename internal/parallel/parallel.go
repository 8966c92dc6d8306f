// Package parallel is the repository's shared deterministic compute
// substrate: a fork-join helper that splits index ranges into
// contiguous chunks with a stable schedule, so that the same inputs,
// seed, and worker count always produce bitwise-identical float64
// results regardless of goroutine scheduling.
//
// Determinism contract:
//
//   - Chunk boundaries depend only on the range length and the worker
//     count — never on timing. Chunk c always covers the same rows.
//   - Callers write results into per-index (or per-chunk) slots and
//     combine partial reductions in chunk order, so no floating-point
//     accumulation order ever depends on which goroutine finished
//     first.
//   - The kernels threaded through internal/mat, internal/cluster, and
//     internal/core go further: they parallelize only over dimensions
//     with no cross-index accumulation, so their output is bitwise
//     identical to the serial path for *every* worker count, not just a
//     fixed one.
//
// The worker count defaults to GOMAXPROCS, can be pinned process-wide
// with the TARGAD_WORKERS environment variable, and can be changed at
// runtime with SetWorkers (used by benchmarks and the -workers flag of
// cmd/targad-bench). It is one budget for the whole process: a call
// runs chunks on its own goroutine and borrows helper goroutines only
// while fewer than Workers()-1 are running anywhere. A call nested in
// another call's chunk, or overlapping it, usually finds the budget
// spent and runs its chunks inline, so coarse outer work (one
// autoencoder per cluster, one loss pass per classifier task) keeps the
// cores and the GEMMs inside it stop forking. Every chunk boundary
// yields the processor, so such work still lets other goroutines (a
// server's request handlers) run between chunks.
//
// Fault tolerance: a worker that dies before executing its chunk
// (simulated via internal/faultinject's WorkerCrash point) degrades
// gracefully — the failed chunks are re-executed serially on the
// caller's goroutine, preserving exactly-once chunk execution and
// bitwise-identical results. A panic raised *inside* the chunk
// function (a real bug, or the WorkerPanic point) still propagates to
// the caller, where the public detector API converts it into an
// error.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"targad/internal/faultinject"
)

// workers holds the configured worker count (always >= 1).
var workers atomic.Int64

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("TARGAD_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	workers.Store(int64(n))
}

// Workers returns the current worker count.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the process-wide worker count (clamped to >= 1) and
// returns the previous value so callers can restore it.
func SetWorkers(n int) (prev int) {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int64(n)))
}

// busy counts the helper goroutines running in the whole process. The
// budget is Workers()-1: a call's own goroutine is the remaining
// worker, so work started from one goroutine never runs more than
// Workers() chunk functions at once, however deeply calls nest, and
// each other goroutine calling in concurrently adds only itself.
var busy atomic.Int64

// acquireHelpers reserves up to want helpers from the process-wide
// budget and returns how many it got (possibly 0).
func acquireHelpers(want int) int {
	for {
		b := busy.Load()
		n := min(int64(want), int64(Workers()-1)-b)
		if n <= 0 {
			return 0
		}
		if busy.CompareAndSwap(b, b+n) {
			return int(n)
		}
	}
}

// chunkPanic carries a chunk's panic to the caller's goroutine.
type chunkPanic struct {
	chunk int
	value any
}

// chunkBounds returns chunk c of the stable schedule that splits
// [0,n) into w contiguous chunks: the first n%w chunks get one extra
// element. The schedule is a pure function of (n, w); w must be in
// [1, n].
func chunkBounds(n, w, c int) (lo, hi int) {
	base, rem := n/w, n%w
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

// ForEachChunkMin is ForEachChunkN over at most Workers() chunks with
// a serial-cutoff guard: the chunk count is capped so every chunk holds
// at least minPerChunk indices. Ranges shorter than 2*minPerChunk
// therefore run serially on the caller's goroutine — the "size cutoff
// below which the serial path is kept" for small kernels.
func ForEachChunkMin(n, minPerChunk int, fn func(lo, hi int)) {
	if minPerChunk < 1 {
		minPerChunk = 1
	}
	w := Workers()
	if most := n / minPerChunk; most < w {
		w = most
	}
	ForEachChunkN(w, n, fn)
}

// Serial reports whether ForEachChunkMin(n, minPerChunk, fn) runs as
// the single chunk fn(0, n) on the caller's goroutine: one worker, or
// a range too short for two chunks. A closure handed to
// ForEachChunkMin is heap-allocated even when it runs inline, so hot
// callers test Serial first to keep their serial path closure-free.
func Serial(n, minPerChunk int) bool {
	return Workers() <= 1 || n < 2*max(minPerChunk, 1)
}

// ForEachChunkN splits [0,n) into min(w, n) contiguous chunks (see
// chunkBounds) and
// runs fn(lo, hi) on each, returning after every chunk completes. A
// panic in any chunk is re-raised in the caller (first chunk in
// schedule order wins, for determinism). The caller's goroutine runs
// chunks itself and takes on at most w-1 helper goroutines, as many as
// the process-wide budget has free; caller and helpers claim chunks in
// schedule order from a shared counter. A call that finds no free
// helper — nested in another call's chunk, or overlapping one — runs
// every chunk inline and starts no goroutine. Which goroutine runs a chunk never changes
// its boundaries, so results do not depend on it.
func ForEachChunkN(w, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w = min(w, n)
	if w <= 1 {
		fn(0, n)
		return
	}
	j := &job{n: n, chunks: w, fn: fn}
	h := acquireHelpers(w - 1)
	j.wg.Add(h)
	for i := 0; i < h; i++ {
		go j.help()
	}
	j.work()
	j.wg.Wait()
	j.finish()
}

// job is one ForEachChunkN call: the chunkBounds schedule handed out through
// next, plus the failures its chunks reported.
type job struct {
	n, chunks int
	fn        func(lo, hi int)
	next      atomic.Int64
	wg        sync.WaitGroup

	mu      sync.Mutex
	panic   *chunkPanic // lowest panicking chunk
	crashed []int       // chunks whose worker died before fn ran
}

// help is a helper goroutine's body. It returns its budget slot as
// soon as it finds no chunk left to claim.
func (j *job) help() {
	defer j.wg.Done()
	defer busy.Add(-1)
	j.work()
}

// work claims and runs chunks until none is left. It yields the
// processor after every chunk: a call whose chunks run inline hands
// off no goroutine, and without the yield a long computation made of
// such calls (a Fit's autoencoder or classifier task) keeps its P for
// a whole preemption slice, about 10 ms, while a request goroutine
// waits to run.
func (j *job) work() {
	for {
		c := int(j.next.Add(1) - 1)
		if c >= j.chunks {
			return
		}
		j.runChunk(c)
		runtime.Gosched()
	}
}

// runChunk runs chunk c behind the fault-injection points, recording a
// panic instead of letting it unwind a helper goroutine.
func (j *job) runChunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			j.mu.Lock()
			if j.panic == nil || c < j.panic.chunk {
				j.panic = &chunkPanic{chunk: c, value: r}
			}
			j.mu.Unlock()
		}
	}()
	if faultinject.Enabled() {
		// A simulated worker crash dies before fn touches any state,
		// so finish can re-execute the chunk exactly once. WorkerPanic
		// instead fires inside the chunk's execution, modeling a bug
		// in fn itself; it propagates like any fn panic.
		if faultinject.Fire(faultinject.WorkerCrash) {
			j.mu.Lock()
			j.crashed = append(j.crashed, c)
			j.mu.Unlock()
			return
		}
		faultinject.Sleep(faultinject.WorkerSlow)
		if faultinject.Fire(faultinject.WorkerPanic) {
			panic("faultinject: worker panic")
		}
	}
	j.fn(chunkBounds(j.n, j.chunks, c))
}

// finish runs on the caller once every chunk has been claimed and
// returned. It re-raises the first panic in schedule order; otherwise
// it re-executes crashed chunks serially, in schedule order. Every
// chunk still runs exactly once, so results (including accumulate
// kernels) are bitwise identical to a healthy run.
func (j *job) finish() {
	if p := j.panic; p != nil {
		panic(fmt.Sprintf("parallel: worker chunk %d panicked: %v", p.chunk, p.value))
	}
	slices.Sort(j.crashed)
	for _, c := range j.crashed {
		j.fn(chunkBounds(j.n, j.chunks, c))
	}
}

// Map runs fn(i) for every i in [0,n). Each index is its own chunk:
// the caller and up to min(n, Workers())-1 helpers claim indices one
// at a time, so long items do not leave a worker idle behind a
// contiguous block. Use it for embarrassingly parallel per-item work
// (e.g. one autoencoder per cluster, one k-means restart per candidate
// k). Results must be written to per-index slots.
func Map(n int, fn func(i int)) {
	if Workers() <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ForEachChunkN(n, n, func(lo, _ int) { fn(lo) })
}
