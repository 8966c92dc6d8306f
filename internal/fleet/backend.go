package fleet

import (
	"net/url"
	"sync"
	"sync/atomic"
)

// BackendState is the router's one view of a replica's health. Probes
// and forwards both feed it (DESIGN.md §13):
//
//	up ──probe fail──▶ degraded ──FailThreshold consecutive fails──▶ down
//	degraded ──probe ok──▶ up
//	down ──probe ok──▶ recovering
//	recovering ──RecoverThreshold consecutive oks──▶ up
//	recovering ──probe fail──▶ down
//	up, degraded ──ForwardFailThreshold consecutive forward faults──▶ down
//	recovering ──forward fault──▶ down
//
// Only probes bring a backend back. A replica whose instance identity
// changes between probes (a restart) drops to recovering regardless of
// its state: a fresh process must re-prove itself before it is trusted
// as up.
type BackendState int32

const (
	StateUp BackendState = iota
	StateDegraded
	StateDown
	StateRecovering
)

func (s BackendState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	case StateRecovering:
		return "recovering"
	}
	return "unknown"
}

// selectable reports whether the router may send new requests to a
// backend in this state. Degraded and recovering replicas stay in
// rotation — the retry policy covers their misses — only down replicas
// are skipped outright.
func (s BackendState) selectable() bool { return s != StateDown }

// Backend is one targad-serve replica behind the router.
type Backend struct {
	// Index is the backend's ordinal in Config.Backends; faultinject
	// targets (FleetBackendDrop etc.) address it.
	Index int
	// Name labels the backend in metrics and logs (host:port).
	Name string

	url *url.URL

	// mu orders probe and forward transitions and guards the runs;
	// the proxy path reads state lock-free.
	mu       sync.Mutex
	state    atomic.Int32 // BackendState
	failRun  int          // consecutive probe failures
	okRun    int          // consecutive probe successes
	faultRun int          // consecutive forward faults
	instance atomic.Pointer[string]
	models   atomic.Pointer[string] // comma-separated X-Targad-Models stamp

	inflight atomic.Int64 // proxied requests currently outstanding

	// counters surfaced as targad_router_backend_* metrics
	requests    atomic.Int64
	failures    atomic.Int64
	probes      atomic.Int64
	probeFails  atomic.Int64
	restarts    atomic.Int64
	transitions atomic.Int64
}

// State returns the router's current view of the backend.
func (b *Backend) State() BackendState { return BackendState(b.state.Load()) }

// Instance returns the last instance identity /readyz reported, or "".
func (b *Backend) Instance() string {
	if p := b.instance.Load(); p != nil {
		return *p
	}
	return ""
}

// Models returns the backend's last X-Targad-Models stamp — the
// comma-separated hot-model list a multi-model replica advertises on
// its health endpoints — or "" for single-model replicas.
func (b *Backend) Models() string {
	if p := b.models.Load(); p != nil {
		return *p
	}
	return ""
}

// setModels records the hot-model stamp from a successful probe.
func (b *Backend) setModels(models string) { b.models.Store(&models) }

// setState moves the backend to s; cause ("probes" or "forwards")
// names the input that drove the transition in its log line. Callers
// hold mu.
func (b *Backend) setState(s BackendState, cause string, logf func(string, ...any)) {
	old := BackendState(b.state.Swap(int32(s)))
	if old != s {
		b.transitions.Add(1)
		logf("fleet: backend %s %s -> %s by %s", b.Name, old, s, cause)
	}
}

// observeProbe advances the state machine on one probe result.
func (b *Backend) observeProbe(ok bool, instance string, cfg *Config, logf func(string, ...any)) {
	b.probes.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok && instance != "" {
		if prev := b.Instance(); prev != "" && prev != instance {
			// The process answering is not the one we knew: a restart.
			// Trust is reset — the fresh replica re-proves itself
			// through recovering before it is up again.
			b.restarts.Add(1)
			b.instance.Store(&instance)
			b.okRun, b.failRun, b.faultRun = 1, 0, 0
			b.setState(StateRecovering, "probes", logf)
			return
		}
		b.instance.Store(&instance)
	}
	if ok {
		b.okRun++
		b.failRun = 0
	} else {
		b.probeFails.Add(1)
		b.failRun++
		b.okRun = 0
	}
	switch b.State() {
	case StateUp:
		if !ok {
			b.setState(StateDegraded, "probes", logf)
		}
	case StateDegraded:
		if ok {
			b.setState(StateUp, "probes", logf)
		} else if b.failRun >= cfg.FailThreshold {
			b.setState(StateDown, "probes", logf)
		}
	case StateDown:
		if ok {
			b.faultRun = 0 // faults from before the outage are stale
			b.setState(StateRecovering, "probes", logf)
		}
	case StateRecovering:
		if !ok {
			b.setState(StateDown, "probes", logf)
		} else if b.okRun >= cfg.RecoverThreshold {
			b.setState(StateUp, "probes", logf)
		}
	}
}

// observeForward feeds one forward verdict into the state machine: a
// fault is a transport error, the try timeout or a 5xx. A success only
// resets the fault run — re-admission is the prober's alone. Threshold
// consecutive faults take a selectable backend down; a recovering one
// goes down on its first fault, as it does on a failed probe.
func (b *Backend) observeForward(fault bool, threshold int, logf func(string, ...any)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !fault {
		b.faultRun = 0
		return
	}
	b.faultRun++
	if s := b.State(); s == StateRecovering || (s.selectable() && b.faultRun >= threshold) {
		b.okRun = 0
		b.setState(StateDown, "forwards", logf)
	}
}
