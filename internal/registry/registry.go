package registry

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"targad/internal/faultinject"
	"targad/internal/pin"
	"targad/internal/retrain"
	"targad/internal/serve"
)

// UnknownModelError reports a request that named a model the manifest
// does not list. It maps to HTTP 404 and — deliberately — is raised
// before the name can reach any metric label or directory path.
type UnknownModelError struct{ Name string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("registry: unknown model %q (not in manifest)", e.Name)
}

// ErrClosed is returned once the registry has shut down.
var ErrClosed = errors.New("registry: closed")

// Config tunes one registry host.
type Config struct {
	// Dir is the model directory holding manifest.json.
	Dir string
	// MaxHot bounds how many models are loaded at once, the pinned
	// default included (minimum 1, default 4). A cold load past the
	// bound evicts the least-recently-used unpinned entry; when every
	// other entry is pinned or mid-load the set temporarily overshoots
	// rather than failing the request.
	MaxHot int

	// Base is the serving configuration template every entry's
	// OpenStack starts from; InstanceID and Logf are suffixed and
	// prefixed with the model name. Base.Monitor, queue/batch tuning,
	// and body limits apply to every model.
	Base serve.Config

	// FeedbackRoot, when set, gives each model its own verdict store at
	// FeedbackRoot/<model-name> and mounts its /feedback endpoints.
	FeedbackRoot string
	// AcquireBudget, when positive, arms a per-model acquisition queue.
	AcquireBudget int

	// Retrain, when set, is the retrain template for models whose spec
	// carries RetrainLabeled/RetrainUnlabeled (OpenStack's arming
	// rules). All entries share one fit slot, so concurrent drift
	// alarms serialize their expensive Fits instead of forking N of
	// them.
	Retrain *retrain.Config

	// Logf receives one line per lifecycle event. Nil discards.
	Logf func(format string, v ...any)
}

// entry is one hot model: a full single-model serving stack plus the
// registry's bookkeeping. Its Stack is closed only after the entry left
// the hot map and its pins drained.
type entry struct {
	*Stack
	name string

	pinned   bool         // the default entry; never evicted
	lastUsed atomic.Int64 // registry clock tick of the last acquire
	pins     *pin.Ref     // in-flight requests; retired on eviction and Close
}

// flight is one in-progress cold load other requests for the same
// model wait on.
type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

// Registry is the multi-model host. Create with New, mount Handler,
// Close on shutdown.
type Registry struct {
	cfg Config
	man *Manifest
	def *entry

	// hot is the lock-free read path: an immutable name→entry map
	// republished copy-on-write under mu on every load and evict.
	hot   atomic.Pointer[map[string]*entry]
	clock atomic.Int64

	mu      sync.Mutex
	flights map[string]*flight
	closed  bool

	evictWG sync.WaitGroup

	loads    atomic.Int64
	loadErrs atomic.Int64
	evicts   atomic.Int64
	sfWaits  atomic.Int64
}

// New loads the manifest in cfg.Dir, eagerly loads the default model
// (a host that cannot serve its default should fail at startup, not on
// the first request), and returns the registry.
func New(cfg Config) (*Registry, error) {
	if cfg.MaxHot <= 0 {
		cfg.MaxHot = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Retrain != nil {
		rc := *cfg.Retrain
		rc.FitSlot = make(chan struct{}, 1)
		cfg.Retrain = &rc
	}
	man, err := LoadManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	r := &Registry{
		cfg:     cfg,
		man:     man,
		flights: map[string]*flight{},
	}
	def, err := r.buildEntry(man.Default, man.Models[man.Default])
	if err != nil {
		return nil, fmt.Errorf("registry: loading default model %q: %w", man.Default, err)
	}
	def.pinned = true
	r.def = def
	m := map[string]*entry{def.name: def}
	r.hot.Store(&m)
	r.loads.Add(1)
	cfg.Logf("registry: %d models manifested in %s, default %q hot (max hot %d)",
		len(man.Models), cfg.Dir, man.Default, cfg.MaxHot)
	return r, nil
}

// DefaultModel returns the manifest's default model name.
func (r *Registry) DefaultModel() string { return r.man.Default }

// tenantModel resolves a tenant ID to its model name; tenants the
// manifest does not list are served the default. The tenant map is
// immutable after New, so the lookup is lock-free.
func (r *Registry) tenantModel(tenant string) string {
	if name, ok := r.man.Tenants[tenant]; ok {
		return name
	}
	return r.man.Default
}

// acquire pins the named model's entry hot and returns it with a
// release func. Cold models load on the spot (single-flighted); an
// entry retired by a concurrent eviction refuses the pin and the
// lookup is retried, so a returned entry's server is guaranteed live
// for the duration of the pin.
func (r *Registry) acquire(name string) (*entry, func(), error) {
	for {
		e, ok := (*r.hot.Load())[name]
		if !ok {
			var err error
			e, err = r.load(name)
			if err != nil {
				return nil, nil, err
			}
		}
		if e.pins.TryPin() {
			e.lastUsed.Store(r.clock.Add(1))
			return e, e.pins.Release, nil
		}
	}
}

// load brings a cold model hot, single-flighting concurrent requests
// for the same name: one builds, the rest wait on its flight.
func (r *Registry) load(name string) (*entry, error) {
	spec, ok := r.man.Models[name]
	if !ok {
		return nil, &UnknownModelError{Name: name}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if e, ok := (*r.hot.Load())[name]; ok { // published while we queued on mu
		r.mu.Unlock()
		return e, nil
	}
	if f, inflight := r.flights[name]; inflight {
		r.mu.Unlock()
		r.sfWaits.Add(1)
		<-f.done
		return f.e, f.err
	}
	f := &flight{done: make(chan struct{})}
	r.flights[name] = f
	r.mu.Unlock()

	e, err := r.buildEntry(name, spec)

	r.mu.Lock()
	delete(r.flights, name)
	if err != nil {
		r.loadErrs.Add(1)
		f.err = err
	} else if r.closed {
		f.err = ErrClosed
		r.mu.Unlock()
		close(f.done)
		e.Close()
		return nil, f.err
	} else {
		r.loads.Add(1)
		f.e = e
		e.lastUsed.Store(r.clock.Add(1))
		r.publishLocked(e)
	}
	r.mu.Unlock()
	close(f.done)
	return f.e, f.err
}

// publishLocked inserts e into the hot map and evicts past MaxHot.
// Callers hold mu. The eviction ordering is the safety argument
// (DESIGN.md §15): the shrunken map is published FIRST, so no new
// request can find the victim; only then is the victim retired, so
// every request that found it in the old map either pinned it first,
// and the drain waits for it, or fails the pin and looks again.
func (r *Registry) publishLocked(e *entry) {
	next := maps.Clone(*r.hot.Load())
	next[e.name] = e
	var victims []*entry
	for len(next) > r.cfg.MaxHot {
		victim := r.pickVictimLocked(next, e)
		if victim == nil {
			break // everything else pinned or just inserted: overshoot rather than fail
		}
		delete(next, victim.name)
		victims = append(victims, victim)
	}
	r.hot.Store(&next)
	for _, victim := range victims {
		r.retireLocked(victim)
	}
}

// pickVictimLocked returns the least-recently-used evictable entry of
// m: not pinned, and not the entry just inserted.
func (r *Registry) pickVictimLocked(m map[string]*entry, just *entry) *entry {
	var victim *entry
	for _, e := range m {
		if e.pinned || e == just {
			continue
		}
		if victim == nil || e.lastUsed.Load() < victim.lastUsed.Load() {
			victim = e
		}
	}
	return victim
}

// retireLocked retires an unpublished victim and closes its stack in
// the background once its last pin is released. In-flight requests
// finish on the model they started with — eviction never fails a
// request.
func (r *Registry) retireLocked(victim *entry) {
	victim.pins.Retire()
	r.evicts.Add(1)
	r.cfg.Logf("registry: evicting model %q (LRU)", victim.name)
	r.evictWG.Add(1)
	go func() {
		defer r.evictWG.Done()
		<-victim.pins.Drained()
		victim.Close()
		r.cfg.Logf("registry: model %q drained and closed", victim.name)
	}()
}

// buildEntry opens one model's serving stack from the manifest spec
// and the host templates. It runs outside the registry lock — a slow
// model load never blocks other tenants.
func (r *Registry) buildEntry(name string, spec ModelSpec) (*entry, error) {
	if faultinject.Fire(faultinject.RegistryLoadFail) {
		return nil, fmt.Errorf("registry: load of model %q failed (injected)", name)
	}
	base := r.cfg.Base
	if base.InstanceID != "" {
		base.InstanceID += "/" + name
	}
	logf := r.cfg.Logf
	base.Logf = func(format string, v ...any) { logf("model %s: "+format, append([]any{name}, v...)...) }
	var feedbackDir string
	if r.cfg.FeedbackRoot != "" {
		feedbackDir = filepath.Join(r.cfg.FeedbackRoot, name)
	}
	st, err := OpenStack(base, spec, feedbackDir, r.cfg.AcquireBudget, r.cfg.Retrain)
	if err != nil {
		return nil, fmt.Errorf("registry: model %q: %w", name, err)
	}
	return &entry{Stack: st, name: name, pins: pin.New()}, nil
}

// Hot returns the currently hot model names, sorted.
func (r *Registry) Hot() []string {
	m := *r.hot.Load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ReloadHot re-reads every hot model's file (the registry's SIGHUP
// behavior). Each entry reloads independently; the first error is
// returned but the sweep continues.
func (r *Registry) ReloadHot() error {
	var first error
	for _, name := range r.Hot() {
		e, release, err := r.acquire(name)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if _, err := e.Server.Reload(); err != nil && first == nil {
			first = fmt.Errorf("model %s: %w", name, err)
		}
		release()
	}
	return first
}

// Counters is the registry's own observability snapshot.
type Counters struct {
	Models, HotModels, MaxHot                     int
	Loads, LoadErrs, Evictions, SingleflightWaits int64
}

// Counters snapshots the registry's lifecycle counters.
func (r *Registry) Counters() Counters {
	return Counters{
		Models:            len(r.man.Models),
		HotModels:         len(*r.hot.Load()),
		MaxHot:            r.cfg.MaxHot,
		Loads:             r.loads.Load(),
		LoadErrs:          r.loadErrs.Load(),
		Evictions:         r.evicts.Load(),
		SingleflightWaits: r.sfWaits.Load(),
	}
}

// Close shuts the registry down: no new loads, every hot entry drained
// and closed, pending evictions joined.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	old := *r.hot.Load()
	empty := map[string]*entry{}
	r.hot.Store(&empty)
	for _, e := range old {
		e.pins.Retire()
	}
	flights := make([]*flight, 0, len(r.flights))
	for _, f := range r.flights {
		flights = append(flights, f)
	}
	r.mu.Unlock()

	for _, f := range flights {
		<-f.done
	}
	for _, e := range old {
		<-e.pins.Drained()
		e.Close()
	}
	r.evictWG.Wait()
}
