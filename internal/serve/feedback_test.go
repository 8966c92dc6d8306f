package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"targad/internal/feedback"
)

// postFeedback sends one verdict and returns the status and body.
func postFeedback(t *testing.T, client *http.Client, url string, req feedbackRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestFeedbackValidatesAgainstModel: a verdict the served model could
// never train on — a row of the wrong width, or a target verdict whose
// type is outside [0, m) — is refused with 400 and leaves the store
// untouched, since appending it would fail every later retrain on the
// store. A valid verdict still records.
func TestFeedbackValidatesAgainstModel(t *testing.T) {
	store, err := feedback.Open(t.TempDir(), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	_, ts := newTestServer(t, Config{Feedback: store})
	m := loadFixtureModel(t).NumTargetTypes()
	row := testRows(1, 7)[0]

	for _, tc := range []struct {
		name string
		req  feedbackRequest
	}{
		{"wide row", feedbackRequest{Features: append(append([]float64(nil), row...), 0.5), Verdict: "benign"}},
		{"narrow row", feedbackRequest{Features: row[:fixtureDim-1], Verdict: "non-target"}},
		{"negative type", feedbackRequest{Features: row, Verdict: "target", TargetType: -1}},
		{"type m", feedbackRequest{Features: row, Verdict: "target", TargetType: m}},
	} {
		if status, body := postFeedback(t, ts.Client(), ts.URL, tc.req); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, status, body)
		}
		if frames, dups := store.Stats(); store.Len() != 0 || frames != 0 || dups != 0 {
			t.Fatalf("%s: store holds %d rows, %d frames, %d duplicates after a refused verdict", tc.name, store.Len(), frames, dups)
		}
	}

	if status, body := postFeedback(t, ts.Client(), ts.URL, feedbackRequest{Features: row, Verdict: "target", TargetType: m - 1}); status != http.StatusOK {
		t.Fatalf("valid verdict: status %d, want 200 (%s)", status, body)
	}
	if frames, _ := store.Stats(); store.Len() != 1 || frames != 1 {
		t.Fatalf("valid verdict: store holds %d rows, %d frames, want 1 and 1", store.Len(), frames)
	}
}

// TestFeedbackNoModel503: with no model loaded there is nothing to
// validate a verdict against, so it is refused with 503.
func TestFeedbackNoModel503(t *testing.T) {
	store, err := feedback.Open(t.TempDir(), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s, err := New(Config{Feedback: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if status, body := postFeedback(t, ts.Client(), ts.URL, feedbackRequest{Features: testRows(1, 7)[0], Verdict: "benign"}); status != http.StatusServiceUnavailable {
		t.Fatalf("no model: status %d, want 503 (%s)", status, body)
	}
	if store.Len() != 0 {
		t.Fatalf("no model: store holds %d rows, want 0", store.Len())
	}
}
