//go:build !race

package autoencoder

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds heap allocations that break the allocation
// bounds.
const raceEnabled = false
