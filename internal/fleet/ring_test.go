package fleet

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	names := []string{"a:1", "b:2", "c:3", "d:4"}
	r1 := buildRing(names, 128)
	r2 := buildRing(names, 128)
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("tenant-%d", k)
		c1 := r1.candidates(key, nil)
		c2 := r2.candidates(key, nil)
		if len(c1) != len(names) {
			t.Fatalf("key %q: %d candidates, want %d", key, len(c1), len(names))
		}
		seen := map[int]bool{}
		for i, v := range c1 {
			if v != c2[i] {
				t.Fatalf("key %q: ring walk not deterministic: %v vs %v", key, c1, c2)
			}
			if seen[v] {
				t.Fatalf("key %q: duplicate backend %d in %v", key, v, c1)
			}
			seen[v] = true
		}
	}
}

func TestRingDistribution(t *testing.T) {
	names := []string{"a:1", "b:2", "c:3"}
	r := buildRing(names, 128)
	counts := make([]int, len(names))
	const keys = 9000
	buf := make([]int, 0, len(names))
	for k := 0; k < keys; k++ {
		buf = r.candidates(fmt.Sprintf("tenant-%d", k), buf[:0])
		counts[buf[0]]++
	}
	for i, c := range counts {
		// With 128 vnodes the split should be far from degenerate: every
		// backend homes at least 20% of tenants.
		if c < keys/5 {
			t.Fatalf("backend %d homes only %d/%d tenants: %v", i, c, keys, counts)
		}
	}
}

// deadTransport fails every forward; these unit tests never want a
// real network.
type deadTransport struct{}

func (deadTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, fmt.Errorf("deadTransport: no network in unit tests")
}

func newUnitRouter(t *testing.T, n int, mut func(*Config)) *Router {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://backend-%d.invalid:9", i)
	}
	cfg := Config{Backends: urls, ProbeInterval: -1, Transport: deadTransport{}}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestPickOrderRoundRobinRotates(t *testing.T) {
	r := newUnitRouter(t, 3, nil)
	req, _ := http.NewRequest(http.MethodPost, "/score", nil)
	firsts := map[int]bool{}
	for i := 0; i < 3; i++ {
		order, pooled := r.pickOrder(req)
		if len(order) != 3 {
			t.Fatalf("order %v, want 3 distinct backends", order)
		}
		firsts[order[0]] = true
		r.candPool.Put(pooled)
	}
	if len(firsts) != 3 {
		t.Fatalf("round-robin start positions %v, want all 3 backends", firsts)
	}
}

func TestPickOrderTenantStable(t *testing.T) {
	r := newUnitRouter(t, 3, nil)
	req, _ := http.NewRequest(http.MethodPost, "/score", nil)
	req.Header.Set("X-Targad-Tenant", "acme")
	var first []int
	for i := 0; i < 5; i++ {
		order, pooled := r.pickOrder(req)
		if first == nil {
			first = append([]int(nil), order...)
		} else {
			for j := range order {
				if order[j] != first[j] {
					t.Fatalf("tenant order drifted: %v vs %v", order, first)
				}
			}
		}
		r.candPool.Put(pooled)
	}
	if home := r.TenantBackend("acme"); home != first[0] {
		t.Fatalf("TenantBackend says %d, ring walk starts at %d", home, first[0])
	}
}

func TestBoundedLoadOverflows(t *testing.T) {
	r := newUnitRouter(t, 3, nil)
	home := r.TenantBackend("acme")
	// Pile synthetic in-flight load onto the home backend: its share of
	// ceil(1.25 * (total+1) / 3) is far exceeded, so the tenant must
	// overflow to its next ring position.
	r.backends[home].inflight.Store(30)
	req, _ := http.NewRequest(http.MethodPost, "/score", nil)
	req.Header.Set("X-Targad-Tenant", "acme")
	order, pooled := r.pickOrder(req)
	defer r.candPool.Put(pooled)
	walk := candidateWalk{order: order}
	b := r.nextCandidate(&walk)
	if b == nil {
		t.Fatal("no candidate despite two idle backends")
	}
	if b.Index == home {
		t.Fatalf("picked overloaded home backend %d", home)
	}
	if r.metrics.overflows.Load() == 0 {
		t.Fatal("overflow metric not bumped")
	}
	// With the load gone the tenant goes home again.
	r.backends[home].inflight.Store(0)
	walk = candidateWalk{order: order}
	b = r.nextCandidate(&walk)
	if b == nil || b.Index != home {
		t.Fatalf("tenant did not return to home %d: got %v", home, b)
	}
	// An overloaded home with no alternative still takes the request:
	// the spill pass turns overflow into a preference, never a shed.
	r.backends[home].inflight.Store(30)
	walk = candidateWalk{order: []int{home}}
	b = r.nextCandidate(&walk)
	if b == nil || b.Index != home {
		t.Fatalf("overloaded last candidate was shed instead of spilled: %v", b)
	}
}

func TestNextCandidateSkipsDown(t *testing.T) {
	r := newUnitRouter(t, 2, nil)
	r.backends[0].state.Store(int32(StateDown))
	walk := candidateWalk{order: []int{0, 1}}
	b := r.nextCandidate(&walk)
	if b == nil || b.Index != 1 {
		t.Fatalf("want backend 1, got %v", b)
	}
	r.backends[1].state.Store(int32(StateDown))
	walk = candidateWalk{order: []int{0, 1}}
	if b := r.nextCandidate(&walk); b != nil {
		t.Fatalf("want no candidate with the whole fleet down, got %d", b.Index)
	}
}

func TestBackendRestartForcesRecovering(t *testing.T) {
	r := newUnitRouter(t, 1, nil)
	b := r.backends[0]
	cfg := &r.cfg
	logf := func(string, ...any) {}
	b.observeProbe(true, "inst-1", cfg, logf)
	b.observeProbe(true, "inst-1", cfg, logf)
	if b.State() != StateUp {
		t.Fatalf("state %v, want up", b.State())
	}
	// Same /readyz endpoint, different process behind it: a restart.
	b.observeProbe(true, "inst-2", cfg, logf)
	if b.State() != StateRecovering {
		t.Fatalf("state %v after instance change, want recovering", b.State())
	}
	if b.restarts.Load() != 1 {
		t.Fatalf("restarts %d, want 1", b.restarts.Load())
	}
	b.observeProbe(true, "inst-2", cfg, logf)
	if b.State() != StateUp {
		t.Fatalf("state %v after RecoverThreshold oks, want up", b.State())
	}
}

func TestProbeStateMachine(t *testing.T) {
	r := newUnitRouter(t, 1, nil)
	b := r.backends[0]
	cfg := &r.cfg // FailThreshold 3, RecoverThreshold 2
	logf := func(string, ...any) {}
	b.observeProbe(true, "i", cfg, logf)
	steps := []struct {
		ok   bool
		want BackendState
	}{
		{false, StateDegraded},
		{true, StateUp},
		{false, StateDegraded},
		{false, StateDegraded},
		{false, StateDown}, // 3rd consecutive fail
		{false, StateDown},
		{true, StateRecovering},
		{false, StateDown}, // recovery interrupted
		{true, StateRecovering},
		{true, StateUp}, // 2nd consecutive ok
	}
	for i, s := range steps {
		b.observeProbe(s.ok, "i", cfg, logf)
		if got := b.State(); got != s.want {
			t.Fatalf("step %d (ok=%v): state %v, want %v", i, s.ok, got, s.want)
		}
	}
}

// TestCircuitBreakerUnit steps one backend through the forward input of
// its health state machine, interleaved with probes: threshold
// consecutive forward faults take a selectable backend down, a success
// resets the fault run, forwards never re-admit, a recovering backend
// goes down on its first fault, and entering recovering clears a stale
// fault run. Each transition's log line names the input that drove it.
func TestCircuitBreakerUnit(t *testing.T) {
	r := newUnitRouter(t, 1, nil)
	b := r.backends[0]
	cfg := &r.cfg // FailThreshold 3, RecoverThreshold 2
	const threshold = 3
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	const (
		fault = iota
		success
		probeOK
		probeFail
	)
	steps := []struct {
		input int
		want  BackendState
	}{
		{fault, StateUp},
		{fault, StateUp},
		{success, StateUp}, // resets the run
		{fault, StateUp},
		{fault, StateUp},
		{probeFail, StateDegraded},
		{fault, StateDown},   // 3rd consecutive fault; degraded is selectable
		{success, StateDown}, // forwards never re-admit
		{fault, StateDown},
		{fault, StateDown},
		{probeOK, StateRecovering}, // clears the stale fault run
		{probeOK, StateUp},
		{fault, StateUp},
		{fault, StateUp},
		{fault, StateDown},
		{probeOK, StateRecovering},
		{fault, StateDown}, // recovery interrupted by one fault
		{probeOK, StateRecovering},
		{probeOK, StateUp},
	}
	for i, s := range steps {
		before, n := b.State(), len(logged)
		cause := "forwards"
		switch s.input {
		case fault, success:
			b.observeForward(s.input == fault, threshold, logf)
		default:
			cause = "probes"
			b.observeProbe(s.input == probeOK, "i", cfg, logf)
		}
		if got := b.State(); got != s.want {
			t.Fatalf("step %d (input %d): state %v, want %v", i, s.input, got, s.want)
		}
		if s.want == before {
			if len(logged) != n {
				t.Fatalf("step %d: no transition, yet logged %q", i, logged[n:])
			}
			continue
		}
		if len(logged) != n+1 || !strings.HasSuffix(logged[n], "by "+cause) {
			t.Fatalf("step %d: transition %v -> %v logged %q, want one line ending %q",
				i, before, s.want, logged[n:], "by "+cause)
		}
	}
	if got := b.transitions.Load(); got != 9 {
		t.Fatalf("transitions %d, want 9", got)
	}
}

// TestProbeReusesConnection pins the prober to one kept-alive
// connection: a probe that closed its /readyz body unread would dial
// anew every round.
func TestProbeReusesConnection(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ready\n"))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	r, err := New(Config{Backends: []string{ts.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for i := 0; i < 10; i++ {
		r.ProbeAll()
	}
	if got := r.backends[0].State(); got != StateUp {
		t.Fatalf("state %v after clean probes, want up", got)
	}
	if n := dials.Load(); n > 1 {
		t.Fatalf("10 probe rounds opened %d connections, want at most 1", n)
	}
}

func TestRetryBudget(t *testing.T) {
	b := retryBudget{ratio: 0.1, burst: 2}
	for i := 0; i < 10; i++ {
		b.observeRequest()
	}
	// 0.1*10 + 2 = 3 retries allowed.
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("retry %d refused inside the budget", i)
		}
	}
	if b.allow() {
		t.Fatal("retry admitted past the budget")
	}
	for i := 0; i < 10; i++ {
		b.observeRequest()
	}
	if !b.allow() {
		t.Fatal("budget did not replenish with traffic")
	}
}
