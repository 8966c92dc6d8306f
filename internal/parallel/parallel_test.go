package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// restoreWorkers pins the worker count for a test and restores the
// previous value on cleanup.
func restoreWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

// schedule lists the chunkBounds chunks ForEachChunkN runs for
// ForEachChunkN(w, n, ...).
func schedule(n, w int) [][2]int {
	if n <= 0 {
		return nil
	}
	w = min(w, n)
	out := make([][2]int, w)
	for c := range out {
		lo, hi := chunkBounds(n, w, c)
		out[c] = [2]int{lo, hi}
	}
	return out
}

func TestRangesCoverEveryIndexExactlyOnce(t *testing.T) {
	cases := []struct{ n, w int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {7, 3}, {100, 7}, {13, 1},
	}
	for _, tc := range cases {
		rs := schedule(tc.n, tc.w)
		seen := make([]int, tc.n)
		prevHi := 0
		for c, rg := range rs {
			lo, hi := rg[0], rg[1]
			if lo != prevHi {
				t.Fatalf("schedule(%d,%d): chunk %d starts at %d, want %d", tc.n, tc.w, c, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("schedule(%d,%d): empty chunk %d [%d,%d)", tc.n, tc.w, c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			prevHi = hi
		}
		if tc.n > 0 && prevHi != tc.n {
			t.Fatalf("schedule(%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.w, prevHi, tc.n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("schedule(%d,%d): index %d covered %d times", tc.n, tc.w, i, c)
			}
		}
	}
}

func TestRangesStableSchedule(t *testing.T) {
	a := schedule(1000, 8)
	b := schedule(1000, 8)
	if len(a) != len(b) {
		t.Fatal("schedule not stable")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs between identical calls: %v vs %v", i, a[i], b[i])
		}
	}
	// First n%w chunks get the extra element.
	rs := schedule(10, 4) // 3,3,2,2
	want := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for i, rg := range rs {
		if rg != want[i] {
			t.Fatalf("schedule(10,4)[%d] = %v, want %v", i, rg, want[i])
		}
	}
}

func TestForEachChunkTouchesEveryIndex(t *testing.T) {
	restoreWorkers(t, 4)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 100} {
		hits := make([]int32, n)
		ForEachChunkN(Workers(), n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForEachChunkFewerItemsThanWorkers(t *testing.T) {
	restoreWorkers(t, 8)
	var calls atomic.Int32
	ForEachChunkN(Workers(), 3, func(lo, hi int) {
		calls.Add(1)
		if hi-lo != 1 {
			t.Errorf("chunk [%d,%d) should hold exactly 1 of 3 items", lo, hi)
		}
	})
	if calls.Load() != 3 {
		t.Fatalf("3 items over 8 workers: %d chunks, want 3", calls.Load())
	}
}

func TestForEachChunkZeroItemsNoCalls(t *testing.T) {
	restoreWorkers(t, 4)
	ForEachChunkN(Workers(), 0, func(lo, hi int) { t.Error("fn called for n=0") })
	Map(0, func(i int) { t.Error("fn called for n=0") })
	ForEachChunkMin(0, 64, func(lo, hi int) { t.Error("fn called for n=0") })
}

func TestForEachChunkMinKeepsSerialPathBelowCutoff(t *testing.T) {
	restoreWorkers(t, 8)
	var calls atomic.Int32
	ForEachChunkMin(100, 64, func(lo, hi int) { calls.Add(1) })
	if calls.Load() != 1 {
		t.Fatalf("100 items with minPerChunk=64: %d chunks, want 1 (serial)", calls.Load())
	}
	calls.Store(0)
	ForEachChunkMin(1000, 64, func(lo, hi int) {
		calls.Add(1)
		if hi-lo < 64 {
			t.Errorf("chunk [%d,%d) below minPerChunk", lo, hi)
		}
	})
	if c := calls.Load(); c < 2 || c > 8 {
		t.Fatalf("1000 items with minPerChunk=64 on 8 workers: %d chunks", c)
	}
}

func TestForEachChunkNotDivisible(t *testing.T) {
	restoreWorkers(t, 3)
	var total atomic.Int64
	ForEachChunkN(Workers(), 10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total.Add(int64(i))
		}
	})
	if total.Load() != 45 {
		t.Fatalf("sum over [0,10) = %d, want 45", total.Load())
	}
}

func TestPanicPropagation(t *testing.T) {
	restoreWorkers(t, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to caller")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom") {
			t.Fatalf("panic value %v does not carry the worker's message", r)
		}
	}()
	ForEachChunkN(Workers(), 100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 60 {
				panic("boom")
			}
		}
	})
}

func TestPanicPropagationSerialPath(t *testing.T) {
	restoreWorkers(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("serial-path panic did not propagate")
		}
	}()
	ForEachChunkN(Workers(), 10, func(lo, hi int) { panic("serial boom") })
}

func TestSetWorkersOverride(t *testing.T) {
	prev := SetWorkers(6)
	defer SetWorkers(prev)
	if Workers() != 6 {
		t.Fatalf("Workers() = %d after SetWorkers(6)", Workers())
	}
	if got := SetWorkers(2); got != 6 {
		t.Fatalf("SetWorkers returned prev=%d, want 6", got)
	}
	// Clamped to >= 1.
	SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0), want 1", Workers())
	}
}

func TestMapVisitsEveryIndexOnce(t *testing.T) {
	restoreWorkers(t, 4)
	n := 257
	hits := make([]int32, n)
	Map(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestNestedCallsShareOneBudget pins the process-wide helper budget: a
// Map whose items each call ForEachChunkN never has more than Workers()
// chunk functions running at once (the outer Map's and the inner
// calls' counted separately — an inner chunk runs on its item's
// goroutine or on a helper), and every index is still visited exactly
// once.
func TestNestedCallsShareOneBudget(t *testing.T) {
	for _, w := range []int{2, 4} {
		restoreWorkers(t, w)
		var outer, inner gauge
		const items, n = 8, 64
		hits := make([]int32, items*n)
		Map(items, func(i int) {
			outer.enter()
			defer outer.leave()
			ForEachChunkN(Workers(), n, func(lo, hi int) {
				inner.enter()
				defer inner.leave()
				for j := lo; j < hi; j++ {
					atomic.AddInt32(&hits[i*n+j], 1)
				}
				time.Sleep(time.Millisecond) // widen the overlap window
			})
		})
		if p := outer.peak.Load(); p > int32(w) {
			t.Fatalf("workers=%d: %d Map items ran at once", w, p)
		}
		if p := inner.peak.Load(); p > int32(w) {
			t.Fatalf("workers=%d: %d nested chunk functions ran at once", w, p)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
		if b := busy.Load(); b != 0 {
			t.Fatalf("workers=%d: %d helper slots still held after return", w, b)
		}
	}
}

// gauge tracks how many goroutines are inside a section and the peak.
type gauge struct{ now, peak atomic.Int32 }

func (g *gauge) enter() {
	n := g.now.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// TestInlineChunksYield pins the yield at chunk boundaries: on one P, a
// goroutine made runnable just before a loop of inline ForEachChunkN
// calls (the enclosing Map holds the helper budget) runs within a few
// of those calls. Without the yield it would wait for the runtime's
// preemption, about 10 ms — tens of thousands of calls.
func TestInlineChunksYield(t *testing.T) {
	restoreWorkers(t, 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ran atomic.Bool
	calls := 0
	done := make(chan struct{})
	Map(2, func(i int) {
		if i == 1 {
			<-done // keep the helper slot for the whole loop
			return
		}
		defer close(done)
		runtime.Gosched() // let item 1 start; begin a fresh time slice
		go ran.Store(true)
		for !ran.Load() && calls < 100_000 {
			ForEachChunkN(2, 2, func(lo, hi int) {})
			calls++
		}
	})
	if !ran.Load() || calls > 100 {
		t.Fatalf("a runnable goroutine waited %d inline calls (ran=%v)", calls, ran.Load())
	}
}
