package pin

import (
	"sync"
	"sync/atomic"
	"testing"
)

func drained(r *Ref) bool {
	select {
	case <-r.Drained():
		return true
	default:
		return false
	}
}

func TestTryPinFailsAfterRetire(t *testing.T) {
	r := New()
	if !r.TryPin() {
		t.Fatal("TryPin on a live value failed")
	}
	r.Retire()
	if r.TryPin() {
		t.Fatal("TryPin succeeded after Retire")
	}
	r.Release()
	if r.TryPin() {
		t.Fatal("TryPin succeeded on a drained value")
	}
}

func TestDrainedWithoutPins(t *testing.T) {
	r := New()
	if drained(r) {
		t.Fatal("live value reads drained")
	}
	r.Retire()
	if !drained(r) {
		t.Fatal("unpinned value not drained at Retire")
	}
	r.Retire() // idempotent: must not close the channel twice
}

func TestDrainedAfterLastRelease(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		if !r.TryPin() {
			t.Fatal("TryPin on a live value failed")
		}
	}
	r.Release() // a release before Retire leaves the value live
	r.Retire()
	for i := 0; i < 2; i++ {
		if drained(r) {
			t.Fatalf("drained with %d pins still held", 2-i)
		}
		r.Release()
	}
	if !drained(r) {
		t.Fatal("not drained after the last Release")
	}
}

func TestReleaseWithoutPinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unpaired Release did not panic")
		}
	}()
	New().Release()
}

// TestConcurrentPinRetire races many pinners against one Retire: no
// pin may succeed after the drain, and the drain must happen exactly
// once, after every successful pin was released.
func TestConcurrentPinRetire(t *testing.T) {
	for round := 0; round < 200; round++ {
		r := New()
		var (
			held atomic.Int64 // pins currently taken and not released
			wg   sync.WaitGroup
			bad  atomic.Bool
		)
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					if !r.TryPin() {
						return
					}
					held.Add(1)
					if drained(r) {
						bad.Store(true) // a pin outlived the drain
					}
					held.Add(-1)
					r.Release()
				}
			}()
		}
		close(start)
		r.Retire()
		<-r.Drained()
		if n := held.Load(); n != 0 {
			t.Fatalf("round %d: drained with %d pins held", round, n)
		}
		wg.Wait()
		if bad.Load() {
			t.Fatalf("round %d: a pin was held after the drain", round)
		}
		if r.TryPin() {
			t.Fatalf("round %d: TryPin succeeded after the drain", round)
		}
	}
}
