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
		// retries; forward faults must not take down the second-to-last
		// healthy replica mid-chaos (that rule has its own test).
		c.ForwardFailThreshold = 50
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
	// started/finished count each worker's requests, so a phase can
	// wait out every request already in flight (see quiesce).
	const workers = 6
	var started, finished [workers]atomic.Int64
	client := &http.Client{Timeout: 10 * time.Second}
	for w := 0; w < workers; w++ {
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
				started[w].Add(1)
				if w%2 == 0 {
					st, body = postJSON(t, client, rt.URL, rows, tenant)
				} else {
					st, body = postBinary(t, client, rt.URL, frame, tenant)
				}
				finished[w].Add(1)
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
	// quiesce waits until every request in flight when it is called
	// has finished, retries included. Each worker is sequential, so
	// that is each worker finishing as many requests as it had started.
	quiesce := func() {
		var want [workers]int64
		for w := range want {
			want[w] = started[w].Load()
		}
		for w := range want {
			for finished[w].Load() < want[w] {
				time.Sleep(time.Millisecond)
			}
		}
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
	// A stall has fired when its try starts, not when it ends: the
	// stalled tries are still waiting out TryTimeout, and their retries
	// have yet to run. Let them finish before the 5xx burst, or one
	// request can meet the stall on 1, then the burst on 2 with 0 dead,
	// and run out of candidates — two simultaneous faults the fleet is
	// not sized to absorb.
	quiesce()

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
		t.Fatalf("%d client-visible failures during chaos; first: %v\nretries=%d sheds=%d budgetExhausted=%d overflows=%d\nstatus=%+v",
			n, badBodies, router.metrics.retries.Load(), router.metrics.sheds.Load(),
			router.metrics.budgetExhausted.Load(), router.metrics.overflows.Load(), router.Status())
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

// TestCircuitBreakerLifecycle drives the router's circuit breaker —
// the forward input of a backend's health state machine — end to end
// with injected 5xx: ForwardFailThreshold faults take the backend down
// and nothing is forwarded while it is down; a probe re-admits it to
// recovering, where a single fault takes it down again; only probes
// bring it back up.
func TestCircuitBreakerLifecycle(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 1, func(c *Config) {
		c.MaxRetries = 0 // each request is exactly one forward
		c.ForwardFailThreshold = 3
	})
	rt := newRouterServer(t, router)
	rows := testRows(2, 1)
	b := router.backends[0]
	post := func(want int, what string) {
		t.Helper()
		if st, body := postJSON(t, http.DefaultClient, rt.URL, rows, ""); st != want {
			t.Fatalf("%s: status %d, want %d (%s)", what, st, want, body)
		}
	}
	wantState := func(want BackendState, what string) {
		t.Helper()
		if got := b.State(); got != want {
			t.Fatalf("%s: state %v, want %v", what, got, want)
		}
	}

	faultinject.ArmTarget(faultinject.FleetBackend5xx, 0, 3)
	for i := 0; i < 2; i++ {
		post(http.StatusServiceUnavailable, "fault under threshold")
		wantState(StateUp, "fault under threshold")
	}
	post(http.StatusServiceUnavailable, "third fault")
	wantState(StateDown, "after 3 forward faults")

	// Down: the lone candidate is skipped, the router sheds, and
	// nothing is forwarded.
	sent := b.requests.Load()
	post(http.StatusServiceUnavailable, "while down")
	if b.requests.Load() != sent {
		t.Fatal("a downed backend was still forwarded a request")
	}

	router.ProbeAll()
	wantState(StateRecovering, "after a clean probe")
	faultinject.ArmTarget(faultinject.FleetBackend5xx, 0, 1)
	post(http.StatusServiceUnavailable, "fault while recovering")
	wantState(StateDown, "after one fault while recovering")

	router.ProbeAll()
	wantState(StateRecovering, "after the first probe")
	router.ProbeAll()
	wantState(StateUp, "after RecoverThreshold probes")
	post(http.StatusOK, "re-admitted backend")
	if got := b.failures.Load(); got != 4 {
		t.Fatalf("failures %d, want 4", got)
	}
}

// TestClientGoneIsNotAFault stalls the only replica and lets every
// client give up first: a forward canceled because its client left
// says nothing about the backend, so it counts no failure and leaves
// the backend up.
func TestClientGoneIsNotAFault(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 1, func(c *Config) {
		c.ForwardFailThreshold = 3
	})
	rt := newRouterServer(t, router)
	body, err := json.Marshal(map[string]any{"instances": testRows(2, 11)})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	faultinject.ArmTargetDelay(faultinject.FleetBackendLatency, 0, time.Second, clients)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	client := &http.Client{Timeout: 50 * time.Millisecond}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(rt.URL+"/score", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				errs <- fmt.Errorf("stalled request answered %d before the client gave up", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each request ends as a router-authored error once its canceled
	// forward has reported back, verdict included.
	deadline := time.Now().Add(3 * time.Second)
	for router.metrics.errs.Load() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d abandoned requests finished", router.metrics.errs.Load(), clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
	b := router.backends[0]
	if got := b.failures.Load(); got != 0 {
		t.Fatalf("failures %d after clients left, want 0", got)
	}
	if got := b.State(); got != StateUp {
		t.Fatalf("state %v after clients left, want up", got)
	}
}

// TestClientGoneReleasesStall stalls the only replica far past its
// clients' patience: each stalled forward must be released as soon as
// its client leaves, and an abandoned request spends no retry and no
// retry budget, and counts no shed.
func TestClientGoneReleasesStall(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	router, _ := newFleet(t, 1, nil)
	rt := newRouterServer(t, router)
	body, err := json.Marshal(map[string]any{"instances": testRows(2, 13)})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	faultinject.ArmTargetDelay(faultinject.FleetBackendLatency, 0, 5*time.Second, clients)

	var wg sync.WaitGroup
	client := &http.Client{Timeout: 50 * time.Millisecond}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := client.Post(rt.URL+"/score", "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
				t.Errorf("stalled request answered %d before the client gave up", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	b := router.backends[0]
	deadline := time.Now().Add(time.Second)
	for router.metrics.errs.Load() < clients || b.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("1s after the clients left: %d of %d requests finished, %d forwards still stalled",
				router.metrics.errs.Load(), clients, b.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := router.metrics.errs.Load(); got != clients {
		t.Fatalf("errs %d, want %d", got, clients)
	}
	m := &router.metrics
	if r, br, s := m.retries.Load(), router.budget.retries.Load(), m.sheds.Load(); r != 0 || br != 0 || s != 0 {
		t.Fatalf("abandoned requests counted retries=%d budget retries=%d sheds=%d, want all 0", r, br, s)
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
	resp, err := http.Get(rt.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d with the fleet down, want 503", resp.StatusCode)
	}

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
