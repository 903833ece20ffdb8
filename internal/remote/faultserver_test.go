package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
)

// FaultKind names one injected network fault — the fault matrix the
// transport's recovery paths are proven against, mirroring
// coord.FaultyLauncher's injected worker crashes one layer down.
type FaultKind int

const (
	FaultNone     FaultKind = iota
	Fault5xx                // respond 503 before touching the backend
	FaultHang               // never respond; hold the request until the client gives up
	FaultReset              // hijack the connection and slam it shut mid-exchange
	FaultTruncate           // send a prefix of the real body, then cut the connection
	FaultCorrupt            // send the real body with its JSON mangled
	FaultSlowDrip           // trickle the real body slower than any client timeout
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case Fault5xx:
		return "5xx"
	case FaultHang:
		return "hang"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	case FaultSlowDrip:
		return "slow-drip"
	}
	return "fault(" + strconv.Itoa(int(k)) + ")"
}

// AnyAttempt wildcards the attempt number in a fault plan entry.
const AnyAttempt = -1

// AnyCoord wildcards the request coordinate in a fault plan entry.
const AnyCoord = "*"

// InfoKey is the plan key for the /v1/info endpoint (it has no request
// coordinates of its own).
const InfoKey = "info"

// FaultPlan schedules faults at exact (coordinate, attempt) points —
// the style of coord.FaultPlan, keyed by wireReqKey strings instead of shard
// indices. Attempts are counted server-side per coordinate (1-based), so
// the schedule is deterministic regardless of client batching or retry
// timing. Lookup precedence: exact (coord, attempt) over (coord, any)
// over (any, attempt) over (any, any).
type FaultPlan struct {
	mu    sync.Mutex
	exact map[faultAt]FaultKind
	any   map[string]FaultKind // coord -> kind, any attempt
}

type faultAt struct {
	key     string
	attempt int
}

// NewFaultPlan returns an empty plan (every request passes through).
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{exact: map[faultAt]FaultKind{}, any: map[string]FaultKind{}}
}

// Set schedules kind for the coordinate key (a wireReqKey string, InfoKey,
// or AnyCoord) at the given 1-based attempt (or AnyAttempt).
func (p *FaultPlan) Set(key string, attempt int, kind FaultKind) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if attempt == AnyAttempt {
		p.any[key] = kind
	} else {
		p.exact[faultAt{key: key, attempt: attempt}] = kind
	}
	return p
}

func (p *FaultPlan) lookup(key string, attempt int) FaultKind {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k, ok := p.exact[faultAt{key: key, attempt: attempt}]; ok {
		return k
	}
	if k, ok := p.any[key]; ok {
		return k
	}
	if k, ok := p.exact[faultAt{key: AnyCoord, attempt: attempt}]; ok {
		return k
	}
	if k, ok := p.any[AnyCoord]; ok {
		return k
	}
	return FaultNone
}

// FaultServer wraps the real wire-protocol handler with deterministic
// fault injection: each incoming request's coordinates are counted
// server-side, the plan is consulted, and the scheduled fault (if any) is
// applied at the transport level — the response the client sees is broken
// exactly the way a sick network would break it, while the backend
// underneath stays the honest one. In a batch, the first request (in
// batch order) with a scheduled fault selects the fault for the whole
// exchange, matching how a transport-level fault really hits a batched
// POST.
type FaultServer struct {
	inner http.Handler
	plan  *FaultPlan

	// Drip and DripChunk shape FaultSlowDrip: DripChunk bytes are written
	// per Drip tick. Defaults: 16 bytes per 10ms.
	Drip      time.Duration
	DripChunk int

	mu       sync.Mutex
	attempts map[string]int // per-coordinate exchange count, 1-based
}

// NewFaultServer wraps backend b (with opts) behind plan.
func NewFaultServer(b gen.Backend, plan *FaultPlan, opts ServerOptions) *FaultServer {
	return &FaultServer{
		inner:     NewHandler(b, opts),
		plan:      plan,
		Drip:      10 * time.Millisecond,
		DripChunk: 16,
		attempts:  map[string]int{},
	}
}

// Attempts reports how many exchanges have been counted for a coordinate
// key — the test hook proving retries actually happened.
func (f *FaultServer) Attempts(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[key]
}

// ServeHTTP counts the request's coordinates, picks the scheduled fault,
// and either injects it or forwards to the real handler.
func (f *FaultServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, keys, err := f.readKeys(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	kind := FaultNone
	f.mu.Lock()
	for _, k := range keys {
		f.attempts[k]++
		if kind == FaultNone {
			kind = f.plan.lookup(k, f.attempts[k])
		}
	}
	f.mu.Unlock()
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	switch kind {
	case Fault5xx:
		http.Error(w, "injected 503", http.StatusServiceUnavailable)
	case FaultHang:
		// Hold the exchange open without a byte of response. The request
		// context unblocks us when the client times out / disconnects or
		// the server is closed — so a hang can never strand a handler.
		<-r.Context().Done()
	case FaultReset:
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close() // abrupt close mid-exchange: client sees EOF/reset
				return
			}
		}
		panic(http.ErrAbortHandler) // non-hijackable writer: abort the conn
	case FaultTruncate:
		full := f.record(r)
		// Promise the full length, deliver half: the client's body read
		// fails with unexpected EOF when the server closes the exchange.
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		w.WriteHeader(http.StatusOK)
		w.Write(full[:len(full)/2])
	case FaultCorrupt:
		full := corruptJSON(f.record(r))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(full)
	case FaultSlowDrip:
		full := f.record(r)
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		for len(full) > 0 && r.Context().Err() == nil {
			n := f.DripChunk
			if n > len(full) {
				n = len(full)
			}
			if _, err := w.Write(full[:n]); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			full = full[n:]
			if err := sleepCtx(r.Context(), f.Drip); err != nil {
				return
			}
		}
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// readKeys extracts the request's coordinate keys (and returns the body
// for replay into the inner handler). Info requests count under InfoKey.
func (f *FaultServer) readKeys(r *http.Request) (body []byte, keys []string, err error) {
	if r.URL.Path == PathInfo {
		return nil, []string{InfoKey}, nil
	}
	body, err = io.ReadAll(r.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("read body: %w", err)
	}
	var req completeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("bad request body: %w", err)
	}
	for _, q := range req.Requests {
		keys = append(keys, wireReqKey(q))
	}
	return body, keys, nil
}

// wireReqKey is the string address of one request's coordinates — the
// unit fault plans key on.
func wireReqKey(q wireRequest) string {
	return fmt.Sprintf("%s/%s:p%d:l%d:t%d:s%d",
		q.Model, q.Variant, q.Problem, q.Level, gen.TempMilli(q.Temperature), q.Sample)
}

// record runs the inner handler into a buffer so a fault can mangle,
// truncate, or drip a *real* response — the failure modes that matter
// are the ones wrapped around otherwise-correct payloads.
func (f *FaultServer) record(r *http.Request) []byte {
	rec := &recordWriter{header: http.Header{}}
	f.inner.ServeHTTP(rec, r)
	return rec.buf.Bytes()
}

// recordWriter is a minimal buffering http.ResponseWriter.
type recordWriter struct {
	header http.Header
	buf    bytes.Buffer
	status int
}

func (rw *recordWriter) Header() http.Header { return rw.header }
func (rw *recordWriter) WriteHeader(s int)   { rw.status = s }
func (rw *recordWriter) Write(p []byte) (int, error) {
	return rw.buf.Write(p)
}

// corruptJSON mangles a JSON payload so it still ships with a consistent
// length but no longer parses: the closing brace is replaced and garbage
// appended, defeating both full and prefix parses.
func corruptJSON(b []byte) []byte {
	out := append([]byte(nil), b...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] == '}' {
			out[i] = '#'
			break
		}
	}
	return append(out, []byte("\x00garbage")...)
}
