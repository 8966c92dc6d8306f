//go:build race

package mat

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops a random share of Puts, so pooled pack buffers
// are reallocated and the zero-alloc assertions cannot hold.
const raceEnabled = true
