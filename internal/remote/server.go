package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/gen"
	"repro/internal/problems"
)

// ServerOptions configure the wire-protocol server side.
type ServerOptions struct {
	// AuthToken, when non-empty, requires every request to carry the
	// matching bearer token; mismatches get 401 (which the client treats
	// as non-retryable — a wrong token never heals).
	AuthToken string
}

// NewHandler serves backend b over the wire protocol. Any backend
// works: vgen-serve puts family or replay behind it, tests put
// mutants behind it. The handler resolves problem numbers against the
// local catalog and answers every request in the batch independently, so
// one bad request degrades only its own entry.
func NewHandler(b gen.Backend, opts ServerOptions) http.Handler {
	mux := http.NewServeMux()
	auth := func(h http.HandlerFunc) http.HandlerFunc {
		if opts.AuthToken == "" {
			return h
		}
		want := "Bearer " + opts.AuthToken
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Authorization") != want {
				http.Error(w, "unauthorized", http.StatusUnauthorized)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc(PathInfo, auth(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		info := infoResponse{Backend: b.Describe()}
		for _, k := range b.Variants() {
			info.Variants = append(info.Variants, wireKey{Model: k.Model, Variant: k.Variant})
		}
		writeJSON(w, info)
	}))
	mux.HandleFunc(PathComplete, auth(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req completeRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad request: "+err.Error(), code)
			return
		}
		writeJSON(w, complete(r.Context(), b, req))
	}))
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// complete answers one batch. Requests that resolve (known problem,
// level in range) go to the backend through gen.ServeBatch — its own
// batch fast path when it has one; requests that don't get per-entry
// errors.
func complete(ctx context.Context, b gen.Backend, req completeRequest) completeResponse {
	results := make([]wireResult, len(req.Requests))
	var reqs []gen.Request
	var idx []int // position of reqs[i] in results
	for i, q := range req.Requests {
		p := problems.ByNumber(q.Problem)
		if p == nil {
			results[i] = wireResult{Error: fmt.Sprintf("no problem %d", q.Problem)}
			continue
		}
		if q.Level < 0 || q.Level >= len(problems.Levels) {
			results[i] = wireResult{Error: fmt.Sprintf("level %d out of range", q.Level)}
			continue
		}
		reqs = append(reqs, gen.Request{
			Key:         gen.Key{Model: q.Model, Variant: q.Variant},
			Problem:     p,
			Level:       problems.Level(q.Level),
			Temperature: q.Temperature,
			SampleIdx:   q.Sample,
			BaseSeed:    q.BaseSeed,
		})
		idx = append(idx, i)
	}
	if len(reqs) == 0 {
		return completeResponse{Results: results}
	}
	for j, res := range gen.ServeBatch(ctx, b, reqs) {
		switch {
		case res.Err != nil:
			results[idx[j]] = wireResult{Error: res.Err.Error()}
		case res.OK:
			results[idx[j]] = wireResult{OK: true, Completion: res.Sample.Completion, Mechanism: res.Sample.Mechanism, Latency: res.Sample.Latency}
		}
	}
	return completeResponse{Results: results}
}

// Server runs a wire-protocol HTTP server on a local listener — the
// in-process harness vgen-serve and every remote test build on. Start
// spawns the serve loop; Close (or ctx cancellation) shuts it down and
// waits for the loop to exit, so a test that closes its server leaks no
// goroutines.
type Server struct {
	handler http.Handler

	mu     sync.Mutex
	srv    *http.Server
	url    string
	done   chan struct{} // closed when the serve loop exits
	cancel context.CancelFunc
}

// NewServer wraps a handler (NewHandler's, or a FaultServer) for serving.
func NewServer(h http.Handler) *Server { return &Server{handler: h} }

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Close or
// ctx cancellation. It returns the bound URL, ready to dial.
func (s *Server) Start(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(ctx)
	srv := &http.Server{Handler: s.handler}
	done := make(chan struct{})
	s.mu.Lock()
	s.srv, s.url, s.done, s.cancel = srv, "http://"+ln.Addr().String(), done, cancel
	s.mu.Unlock()
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	go func() {
		<-ctx.Done()
		srv.Close() // unblocks Serve and in-flight handlers
	}()
	return s.URL(), nil
}

// URL returns the bound address ("http://127.0.0.1:port") after Start.
func (s *Server) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.url
}

// Close shuts the server down and waits for the serve loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	srv, done, cancel := s.srv, s.done, s.cancel
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	cancel()
	err := srv.Close()
	<-done
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
