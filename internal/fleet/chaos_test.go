package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"targad/internal/faultinject"
	"targad/internal/wire"
)

// postBinary posts one binary score frame and returns status, body.
func postBinary(t testing.TB, client *http.Client, url string, frame []byte, tenant string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/score", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	if tenant != "" {
		req.Header.Set("X-Targad-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("post binary: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestRoutedScoresBitwiseIdentical is the transparency contract: a
// frame scored through the router must come back byte-for-byte equal
// to the same frame scored directly against a backend, and JSON scores
// must match exactly.
func TestRoutedScoresBitwiseIdentical(t *testing.T) {
	router, backends := newFleet(t, 1, nil)
	rt := newRouterServer(t, router)
	rows := testRows(16, 42)

	frame, err := wire.AppendRequestF64(nil, rows, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	stDirect, direct := postBinary(t, http.DefaultClient, backends[0].URL, frame, "")
	stRouted, routed := postBinary(t, http.DefaultClient, rt.URL, frame, "tenant-a")
	if stDirect != http.StatusOK || stRouted != http.StatusOK {
		t.Fatalf("status direct=%d routed=%d", stDirect, stRouted)
	}
	if !bytes.Equal(direct, routed) {
		t.Fatalf("binary response differs through the router: %d vs %d bytes", len(direct), len(routed))
	}
	if _, err := wire.DecodeResponse(routed); err != nil {
		t.Fatalf("routed frame does not decode: %v", err)
	}

	stDirect, directJSON := postJSON(t, http.DefaultClient, backends[0].URL, rows, "")
	stRouted, routedJSON := postJSON(t, http.DefaultClient, rt.URL, rows, "tenant-a")
	if stDirect != http.StatusOK || stRouted != http.StatusOK {
		t.Fatalf("json status direct=%d routed=%d", stDirect, stRouted)
	}
	ds, rs := decodeScores(t, directJSON), decodeScores(t, routedJSON)
	if len(ds) != len(rows) || len(rs) != len(rows) {
		t.Fatalf("score lengths direct=%d routed=%d", len(ds), len(rs))
	}
	for i := range ds {
		if ds[i] != rs[i] {
			t.Fatalf("score %d differs: direct %v routed %v", i, ds[i], rs[i])
		}
	}
}

// TestChaosKillStallFlap is the headline chaos run: three replicas
// under concurrent mixed JSON+binary load while faults land on
// specific backends — a kill (every connection dropped), a stall
// (injected latency past the try timeout), injected 5xx bursts, and a
// probe flap. The assertion is the paper's availability contract: as
// long as at least one replica is healthy, zero failures are
// client-visible.
func TestChaosKillStallFlap(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 3, func(c *Config) {
		c.TryTimeout = 400 * time.Millisecond
		c.MaxRetries = 3
		c.RetryBudget = 1 // chaos floods failures on purpose; don't starve retries
		c.BackoffBase = time.Millisecond
		c.BackoffMax = 5 * time.Millisecond
		c.FailThreshold = 3
		c.RecoverThreshold = 2
		// The stall and 5xx bursts below are sized to be absorbed by
		// retries; the breaker must not amputate the second-to-last
		// healthy replica mid-chaos (its lifecycle has its own test).
		c.CBFailures = 50
	})
	rt := newRouterServer(t, router)
	rows := testRows(4, 7)
	frame, err := wire.AppendRequestF64(nil, rows, -1, false)
	if err != nil {
		t.Fatal(err)
	}

	var bad atomic.Int64
	var phase atomic.Int32
	var badMu sync.Mutex
	var badBodies []string
	var done atomic.Bool
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w)
			if w%3 == 0 {
				tenant = "" // round-robin path under chaos too
			}
			for i := 0; !done.Load(); i++ {
				var st int
				var body []byte
				if w%2 == 0 {
					st, body = postJSON(t, client, rt.URL, rows, tenant)
				} else {
					st, body = postBinary(t, client, rt.URL, frame, tenant)
				}
				if st != http.StatusOK {
					bad.Add(1)
					badMu.Lock()
					if len(badBodies) < 8 {
						badBodies = append(badBodies, fmt.Sprintf("phase %d worker %d: status %d: %.200s", phase.Load(), w, st, body))
					}
					badMu.Unlock()
				}
			}
		}(w)
	}

	phase.Store(1)
	// Phase 1: kill backend 0 — every connection and probe to it drops.
	faultinject.ArmTarget(faultinject.FleetBackendDrop, 0, 100000)
	for i := 0; i < 3; i++ {
		router.ProbeAll()
	}
	if got := router.backends[0].State(); got != StateDown {
		t.Fatalf("killed backend state %v, want down", got)
	}
	time.Sleep(300 * time.Millisecond) // load keeps flowing with the backend down

	phase.Store(2)
	// Phase 2: stall backend 1 past the try timeout while 0 is still
	// dead — the fleet is down to one clean replica and must still
	// answer everything (stalled tries time out and retry onto 2).
	faultinject.ArmTargetDelay(faultinject.FleetBackendLatency, 1, 600*time.Millisecond, 8)
	for faultinject.Fired(faultinject.FleetBackendLatency) < 8 {
		time.Sleep(20 * time.Millisecond)
	}

	phase.Store(3)
	// Phase 3: 5xx burst on backend 2 — retries absorb it.
	faultinject.ArmTarget(faultinject.FleetBackend5xx, 2, 5)
	for faultinject.Fired(faultinject.FleetBackend5xx) < 5 {
		time.Sleep(20 * time.Millisecond)
	}

	phase.Store(4)
	// Phase 4: revive backend 0 and flap backend 1's probe once — a
	// single blip degrades it (still selectable) but must not take it
	// out of rotation.
	faultinject.Disarm(faultinject.FleetBackendDrop)
	faultinject.ArmTarget(faultinject.FleetBackendFlap, 1, 1)
	router.ProbeAll() // 0: down -> recovering, 1: up -> degraded
	if got := router.backends[1].State(); got != StateDegraded {
		t.Fatalf("flapped backend state %v, want degraded", got)
	}
	router.ProbeAll() // 0: recovering -> up, 1: degraded -> up
	if got := router.backends[0].State(); got != StateUp {
		t.Fatalf("revived backend state %v, want up", got)
	}
	if got := router.backends[1].State(); got != StateUp {
		t.Fatalf("flapped backend state %v after clean probe, want up", got)
	}
	time.Sleep(200 * time.Millisecond) // settled fleet serves a while longer

	done.Store(true)
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d client-visible failures during chaos; first: %v\nretries=%d sheds=%d budgetExhausted=%d circuitSkips=%d overflows=%d\nstatus=%+v",
			n, badBodies, router.metrics.retries.Load(), router.metrics.sheds.Load(),
			router.metrics.budgetExhausted.Load(), router.metrics.circuitSkips.Load(),
			router.metrics.overflows.Load(), router.Status())
	}
	if router.metrics.retries.Load() == 0 {
		t.Fatal("chaos run drove zero retries — the faults never landed")
	}
	st := router.Status()
	if st[0].Restarts != 0 {
		// The fixture replicas never actually restarted; identity must
		// have been stable through the kill.
		t.Fatalf("phantom restart recorded: %+v", st[0])
	}
}

// TestCircuitBreakerLifecycle drives one backend's breaker through
// closed -> open -> half-open -> closed with injected 5xx, asserting
// each transition and that an open breaker sheds without forwarding.
func TestCircuitBreakerLifecycle(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 1, func(c *Config) {
		c.MaxRetries = 0 // each request is exactly one forward
		c.CBFailures = 3
		c.CBCooldown = 80 * time.Millisecond
	})
	rt := newRouterServer(t, router)
	rows := testRows(2, 1)
	b := router.backends[0]

	// Three straight 5xx answers open the breaker.
	faultinject.ArmTarget(faultinject.FleetBackend5xx, 0, 3)
	for i := 0; i < 3; i++ {
		if st, _ := postJSON(t, http.DefaultClient, rt.URL, rows, ""); st != http.StatusServiceUnavailable {
			t.Fatalf("request %d under 5xx: status %d, want 503", i, st)
		}
	}
	if got := b.cb.snapshotState(); got != cbOpen {
		t.Fatalf("breaker state %d after %d failures, want open", got, 3)
	}

	// Open breaker: the lone candidate is skipped, the router sheds,
	// and nothing is forwarded.
	sent := b.requests.Load()
	st, body := postJSON(t, http.DefaultClient, rt.URL, rows, "")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("status %d through open breaker, want 503 (%s)", st, body)
	}
	if b.requests.Load() != sent {
		t.Fatal("open breaker still forwarded a request")
	}
	if router.metrics.circuitSkips.Load() == 0 {
		t.Fatal("circuit skip not counted")
	}

	// After the cooldown one trial goes through; the backend is healthy
	// again, so the trial closes the breaker and traffic resumes.
	time.Sleep(100 * time.Millisecond)
	if st, _ := postJSON(t, http.DefaultClient, rt.URL, rows, ""); st != http.StatusOK {
		t.Fatalf("trial request status %d, want 200", st)
	}
	if got := b.cb.snapshotState(); got != cbClosed {
		t.Fatalf("breaker state %d after successful trial, want closed", got)
	}
	if b.cb.opens.Load() != 1 || b.cb.halfOpens.Load() != 1 || b.cb.closes.Load() != 1 {
		t.Fatalf("transitions opens=%d halfOpens=%d closes=%d, want 1/1/1",
			b.cb.opens.Load(), b.cb.halfOpens.Load(), b.cb.closes.Load())
	}
	if st, _ := postJSON(t, http.DefaultClient, rt.URL, rows, ""); st != http.StatusOK {
		t.Fatal("closed breaker refused clean traffic")
	}
}

// TestHedgeCancelsLoser arms tail-latency hedging, stalls a tenant's
// home replica, and asserts the hedge answers while the stalled loser
// is canceled mid-flight rather than left running to completion.
func TestHedgeCancelsLoser(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 2, func(c *Config) {
		c.HedgeQuantile = 0.9
		c.HedgeMin = 10 * time.Millisecond
		c.MaxRetries = 0
		c.TryTimeout = 5 * time.Second // the stall must lose to the hedge, not the timeout
	})
	rt := newRouterServer(t, router)
	rows := testRows(2, 3)

	// Warm the latency window past minHedgeSamples so the quantile is
	// live.
	for i := 0; i < minHedgeSamples+4; i++ {
		if st, _ := postJSON(t, http.DefaultClient, rt.URL, rows, ""); st != http.StatusOK {
			t.Fatalf("warmup request %d failed", i)
		}
	}

	tenant := "hedged-tenant"
	home := router.TenantBackend(tenant)
	faultinject.ArmTargetDelay(faultinject.FleetBackendLatency, home, 2*time.Second, 1)

	start := time.Now()
	st, body := postJSON(t, http.DefaultClient, rt.URL, rows, tenant)
	took := time.Since(start)
	if st != http.StatusOK {
		t.Fatalf("hedged request status %d (%s)", st, body)
	}
	if took >= 2*time.Second {
		t.Fatalf("request took %v — it waited out the stall instead of hedging", took)
	}
	if router.metrics.hedges.Load() == 0 || router.metrics.hedgeWins.Load() == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both > 0",
			router.metrics.hedges.Load(), router.metrics.hedgeWins.Load())
	}
	// The loser is canceled asynchronously once the winner returns; its
	// launch goroutine records the cancellation.
	deadline := time.Now().Add(2 * time.Second)
	for router.metrics.hedgeCancels.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing attempt was never canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(start); waited >= 2*time.Second {
		t.Fatalf("loser cancel observed only after the full stall (%v)", waited)
	}
}

// TestNoCandidate503 is the router's only self-authored failure: with
// the whole fleet down it answers 503 with Retry-After, speaking the
// client's protocol (JSON or a wire error frame).
func TestNoCandidate503(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 2, func(c *Config) {
		c.MaxRetries = 1
		c.BackoffBase = time.Millisecond
		c.BackoffMax = 2 * time.Millisecond
	})
	rt := newRouterServer(t, router)
	for _, b := range router.backends {
		b.state.Store(int32(StateDown))
	}
	rows := testRows(2, 5)

	st, body := postJSON(t, http.DefaultClient, rt.URL, rows, "t")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("status %d with the fleet down, want 503 (%s)", st, body)
	}
	resp, err := http.DefaultClient.Post(rt.URL+"/readyz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Retry-After and the JSON error body.
	req, _ := http.NewRequest(http.MethodPost, rt.URL+"/score", bytes.NewReader([]byte(`{"instances":[[0]]}`)))
	req.Header.Set("Content-Type", "application/json")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// Binary clients get a decodable wire error frame.
	frame, err := wire.AppendRequestF64(nil, testRows(1, 5), -1, false)
	if err != nil {
		t.Fatal(err)
	}
	st, body = postBinary(t, http.DefaultClient, rt.URL, frame, "")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("binary status %d, want 503", st)
	}
	if _, err := wire.DecodeResponse(body); err == nil {
		// An error frame decodes into a Response carrying the error; a
		// failure to parse at all would break binary clients.
		t.Log("error frame decoded as response")
	}
	if len(body) == 0 {
		t.Fatal("binary 503 carried no error frame")
	}
	if router.metrics.sheds.Load() < 2 {
		t.Fatalf("sheds=%d, want >= 2", router.metrics.sheds.Load())
	}
}

// TestRouterMetricsAndBackendsEndpoints smoke-checks the observability
// surface: Prometheus text on /metrics with per-backend labels, JSON
// on /backends.
func TestRouterMetricsAndBackendsEndpoints(t *testing.T) {
	router, _ := newFleet(t, 2, nil)
	rt := newRouterServer(t, router)
	if st, _ := postJSON(t, http.DefaultClient, rt.URL, testRows(2, 9), "m"); st != http.StatusOK {
		t.Fatal("score through router failed")
	}
	resp, err := http.Get(rt.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"targad_router_requests_total 1",
		"targad_router_requests_ok_total 1",
		"targad_router_backend_state{backend=",
		"targad_router_circuit_state{backend=",
		"targad_router_tenant_routed_total 1",
		"# HELP targad_router_request_duration_seconds ",
		"# TYPE targad_router_request_duration_seconds summary\n",
	} {
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("/metrics missing %q:\n%s", want, b)
		}
	}
	r2, err := http.Get(rt.URL + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var statuses []BackendStatus
	if err := json.NewDecoder(r2.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("%d backend statuses, want 2", len(statuses))
	}
	for _, s := range statuses {
		if s.State != "up" {
			t.Fatalf("backend %s state %q, want up", s.Name, s.State)
		}
		if s.Instance == "" {
			t.Fatalf("backend %s reported no instance identity", s.Name)
		}
	}
}
