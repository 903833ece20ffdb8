package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/problems"
)

// TestResponseOverCapFailsBatch: a server that answers a batch with more
// than maxResponseBytes fails the batch with an explicit error after one
// attempt.
func TestResponseOverCapFailsBatch(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		chunk := make([]byte, 64<<10)
		for n := 0; n <= maxResponseBytes; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the client stopped reading at the cap
			}
		}
	}))
	defer srv.Close()
	tr, err := newTransport(Options{Endpoint: srv.URL, Seed: testSeed}, fastPolicy)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.client.CloseIdleConnections()
	res := tr.CompleteBatch(context.Background(), []gen.Request{
		{Key: gen.Key{Model: "m", Variant: "v"}, Problem: problems.ByNumber(1), Level: problems.LevelLow, Temperature: 0.1},
	})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), errResponseTooLarge.Error()) {
		t.Fatalf("want the oversized-response error, got %+v", res[0])
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d attempts, want 1: an oversized response does not heal", n)
	}
}

// TestRequestOverCapFailsBatch: the server decodes at most
// maxRequestBytes of a request. A larger body gets 413, which the
// transport reports without retrying; a body under the cap is served.
func TestRequestOverCapFailsBatch(t *testing.T) {
	var attempts atomic.Int64
	h := NewHandler(familyBackend(t), ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	tr, err := newTransport(Options{Endpoint: srv.URL, Seed: testSeed}, fastPolicy)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.client.CloseIdleConnections()
	decode := func([]byte) error { return nil }

	big := []byte(`{"requests":[],"pad":"` + strings.Repeat("x", maxRequestBytes) + `"}`)
	err = tr.do(context.Background(), PathComplete, big, "", 0, decode)
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized request: %v, want status 413", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d attempts, want 1: an oversized request does not heal", n)
	}
	if err := tr.do(context.Background(), PathComplete, []byte(`{"requests":[]}`), "", 0, decode); err != nil {
		t.Errorf("a request under the cap failed: %v", err)
	}
}
