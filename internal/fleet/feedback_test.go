package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeReplica is a scripted backend for forwarding-policy tests: it
// answers /readyz like a real replica and counts the traffic on every
// admin route the router forwards.
type fakeReplica struct {
	ts           *httptest.Server
	feedbackHits atomic.Int64
	queueHits    atomic.Int64
	lastBody     atomic.Pointer[[]byte]
	lastQuery    atomic.Pointer[string]
	// fail makes every admin route answer 500; hits counts each
	// "METHOD /path" that reached this replica.
	fail atomic.Bool
	mu   sync.Mutex
	hits map[string]int
}

// hitCount returns how many method requests for path reached f.
func (f *fakeReplica) hitCount(method, path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[method+" "+path]
}

func newFakeReplica(t testing.TB, instance string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{hits: map[string]int{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Targad-Instance", instance)
		w.WriteHeader(http.StatusOK)
	})
	// admin wraps one admin route: it counts the hit and, while fail is
	// set, answers 500 instead of running next.
	admin := func(next http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			f.hits[r.Method+" "+r.URL.Path]++
			f.mu.Unlock()
			if f.fail.Load() {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			next(w, r)
		}
	}
	mux.HandleFunc("/feedback", admin(func(w http.ResponseWriter, r *http.Request) {
		f.feedbackHits.Add(1)
		b, _ := io.ReadAll(r.Body)
		f.lastBody.Store(&b)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"recorded":true}`))
	}))
	mux.HandleFunc("/feedback/queue", admin(func(w http.ResponseWriter, r *http.Request) {
		f.queueHits.Add(1)
		q := r.URL.RawQuery
		f.lastQuery.Store(&q)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"items":[],"depth":0,"budget":0}`))
	}))
	// /promote and /discard are not replica routes any more; the fake
	// answers them so a test can tell the router never forwards them.
	for _, path := range []string{"/reload", "/promote", "/discard", "/drift", "/retrain"} {
		mux.HandleFunc(path, admin(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{}`))
		}))
	}
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newFeedbackFleet(t testing.TB, replicas []*fakeReplica) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, f := range replicas {
		urls[i] = f.ts.URL
	}
	r, err := New(Config{
		Backends:      urls,
		ProbeInterval: -1,
		MaxRetries:    2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.ProbeAll()
	return r, newRouterServer(t, r)
}

// TestFeedbackForwarding: POST /feedback and GET /feedback/queue route
// through the fleet to exactly one replica — a tenant's verdicts and
// its acquisition reads land on its home replica — with the body and
// query string passed through opaquely.
func TestFeedbackForwarding(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	_, ts := newFeedbackFleet(t, replicas)

	body := []byte(`{"features":[0.5,0.25],"verdict":"target","target_type":1}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/feedback", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Targad-Tenant", "acme")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /feedback: status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Contains(out, []byte("recorded")) {
		t.Fatalf("backend response not passed through: %s", out)
	}
	var home *fakeReplica
	total := int64(0)
	for _, f := range replicas {
		n := f.feedbackHits.Load()
		total += n
		if n > 0 {
			home = f
		}
	}
	if total != 1 || home == nil {
		t.Fatalf("verdict hit %d replicas, want exactly 1", total)
	}
	if got := *home.lastBody.Load(); !bytes.Equal(got, body) {
		t.Fatalf("forwarded body %q != original %q", got, body)
	}

	// The same tenant's queue read lands on the same home replica with
	// the query string intact.
	qreq, err := http.NewRequest(http.MethodGet, ts.URL+"/feedback/queue?n=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	qreq.Header.Set("X-Targad-Tenant", "acme")
	qresp, err := ts.Client().Do(qreq)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /feedback/queue: status %d", qresp.StatusCode)
	}
	if home.queueHits.Load() != 1 {
		t.Fatalf("queue read did not land on the tenant's home replica")
	}
	if q := home.lastQuery.Load(); q == nil || *q != "n=3" {
		t.Fatalf("query string not forwarded: %v", q)
	}

	// Wrong methods are the router's own 405, never forwarded.
	if resp, err := ts.Client().Get(ts.URL + "/feedback"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /feedback: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestFeedbackRetryPolicy pins the router's forwarding policy on every
// admin route. Policy follows the method: a POST mutates the replica
// (records a verdict, swaps a model, starts a retrain), so with every
// replica failing it gets exactly one attempt and the client sees the
// shed; a GET is an idempotent read and is retried onto the second
// replica. A method the route does not take is the router's own 405,
// never forwarded.
func TestFeedbackRetryPolicy(t *testing.T) {
	cases := []struct {
		method, path string
		idempotent   bool
		// wrong is a method the route rejects, with the 405 message.
		wrong, msg string
	}{
		{http.MethodPost, "/feedback", false, http.MethodGet, "POST required"},
		{http.MethodPost, "/reload", false, http.MethodGet, "POST required"},
		{http.MethodPost, "/retrain", false, http.MethodPut, "GET or POST required"},
		{http.MethodGet, "/feedback/queue", true, http.MethodPost, "GET required"},
		{http.MethodGet, "/drift", true, http.MethodPost, "GET required"},
		{http.MethodGet, "/retrain", true, http.MethodDelete, "GET or POST required"},
	}
	for _, tc := range cases {
		t.Run(tc.method+tc.path, func(t *testing.T) {
			replicas := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
			for _, f := range replicas {
				f.fail.Store(true)
			}
			_, ts := newFeedbackFleet(t, replicas)

			var body io.Reader
			if tc.method == http.MethodPost {
				body = bytes.NewReader([]byte(`{"features":[1],"verdict":"benign"}`))
			}
			status, _ := doRequest(t, ts, tc.method, tc.path, body)
			if status != http.StatusServiceUnavailable {
				t.Fatalf("%s %s with every replica failing: status %d, want 503", tc.method, tc.path, status)
			}
			n := replicas[0].hitCount(tc.method, tc.path) + replicas[1].hitCount(tc.method, tc.path)
			if !tc.idempotent && n != 1 {
				t.Fatalf("non-idempotent %s %s was attempted %d times, want exactly 1", tc.method, tc.path, n)
			}
			if tc.idempotent && n < 2 {
				t.Fatalf("idempotent %s %s was attempted %d times, want a retry on the second replica", tc.method, tc.path, n)
			}

			status, out := doRequest(t, ts, tc.wrong, tc.path, nil)
			if status != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", tc.wrong, tc.path, status)
			}
			if want := `{"error":"` + tc.msg + `"}` + "\n"; string(out) != want {
				t.Fatalf("%s %s: body %q, want %q", tc.wrong, tc.path, out, want)
			}
			if n := replicas[0].hitCount(tc.wrong, tc.path) + replicas[1].hitCount(tc.wrong, tc.path); n != 0 {
				t.Fatalf("%s %s was forwarded %d times, want the router's own 405", tc.wrong, tc.path, n)
			}
		})
	}
}

// TestShadowAdminRoutesNotForwarded: a shadow candidate is installed,
// promoted and discarded only by its replica's retrain cycle, so POST
// /promote and POST /discard are not routes of the router: each is a
// 404 that reaches no replica.
func TestShadowAdminRoutesNotForwarded(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	_, ts := newFeedbackFleet(t, replicas)
	for _, path := range []string{"/promote", "/discard"} {
		if status, out := doRequest(t, ts, http.MethodPost, path, nil); status != http.StatusNotFound {
			t.Fatalf("POST %s: status %d (%s), want 404", path, status, out)
		}
		if n := replicas[0].hitCount(http.MethodPost, path) + replicas[1].hitCount(http.MethodPost, path); n != 0 {
			t.Fatalf("POST %s reached a replica %d times, want 0", path, n)
		}
	}
}

// TestProxyDropsConnectionNamedHeaders: a field that a message's
// Connection header names is hop-by-hop (RFC 9110 §7.6.1), so the
// router forwards it in neither direction — not the client's to the
// replica, not the replica's to the client.
func TestProxyDropsConnectionNamedHeaders(t *testing.T) {
	var got atomic.Pointer[http.Header]
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Targad-Instance", "a")
	})
	mux.HandleFunc("/drift", func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Clone()
		got.Store(&h)
		w.Header().Set("Connection", "X-Back-Secret")
		w.Header().Set("X-Back-Secret", "b")
		w.Header().Set("X-Back-Public", "b")
		w.Write([]byte(`{}`))
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)
	r, err := New(Config{Backends: []string{backend.URL}, ProbeInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.ProbeAll()
	ts := newRouterServer(t, r)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/drift", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "X-Front-Secret")
	req.Header.Set("X-Front-Secret", "f")
	req.Header.Set("X-Front-Public", "f")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /drift: status %d", resp.StatusCode)
	}
	h := got.Load()
	if h == nil {
		t.Fatal("the request never reached the replica")
	}
	if v := h.Get("X-Front-Secret"); v != "" {
		t.Fatalf("replica received X-Front-Secret %q, which the client's Connection header names", v)
	}
	if h.Get("X-Front-Public") != "f" {
		t.Fatal("replica did not receive the end-to-end X-Front-Public")
	}
	if v := resp.Header.Get("X-Back-Secret"); v != "" {
		t.Fatalf("client received X-Back-Secret %q, which the replica's Connection header names", v)
	}
	if resp.Header.Get("X-Back-Public") != "b" {
		t.Fatal("client did not receive the end-to-end X-Back-Public")
	}
}

// doRequest sends one request through the router and returns the
// status and body.
func doRequest(t *testing.T, ts *httptest.Server, method, path string, body io.Reader) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}
