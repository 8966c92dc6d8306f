// Package pin refcounts a value that is retired while readers may
// still be using it. Its one user is the model registry: an entry
// evicted from the hot set, or closed with the registry, must drain
// its in-flight requests before its serving stack is closed. Readers
// take a pin before use and release it after; the owner retires the
// value once it can no longer be found, then waits on Drained before
// tearing it down.
//
// The safety argument is publish-before-retire: unpublish the value
// first (republish the map), then Retire it. A reader that loaded the
// old value either pinned it before Retire, and Drained waits for that
// pin, or fails TryPin and reloads, finding the successor.
package pin

import "sync/atomic"

// Ref is the pin count of one value. Create with New.
type Ref struct {
	// state is pins<<1 | retired: one atomic word, so TryPin can
	// refuse a retired value without a lock and without ever counting
	// a pin the drain has already passed.
	state   atomic.Int64
	drained chan struct{}
}

// New returns a live, unpinned Ref.
func New() *Ref { return &Ref{drained: make(chan struct{})} }

// TryPin takes a pin unless the value is retired; on false the caller
// must not use the value.
func (r *Ref) TryPin() bool {
	for {
		s := r.state.Load()
		if s&1 != 0 {
			return false
		}
		if r.state.CompareAndSwap(s, s+2) {
			return true
		}
	}
}

// Release drops a pin taken by TryPin.
func (r *Ref) Release() {
	switch s := r.state.Add(-2); {
	case s == 1:
		close(r.drained) // the last pin of a retired value
	case s < 0:
		panic("pin: Release without a pin")
	}
}

// Retire marks the value retired: every later TryPin fails. Retiring
// twice is a no-op.
func (r *Ref) Retire() {
	for {
		s := r.state.Load()
		if s&1 != 0 {
			return
		}
		if r.state.CompareAndSwap(s, s|1) {
			if s == 0 {
				close(r.drained) // retired with no pin held
			}
			return
		}
	}
}

// Drained returns a channel that is closed once the value is retired
// and its last pin released.
func (r *Ref) Drained() <-chan struct{} { return r.drained }
