// Package remote is the network-proxied generation backend: an HTTP
// client transport (and the matching server) that lets any
// completion source behind a JSON-over-HTTP endpoint plug into the
// frozen eval/coord machinery as a registered gen.Backend.
//
// The robustness stack mirrors the coordinator's supervision discipline
// one layer down — where coord survives crashing workers, this package
// makes a single worker survive a flaky network:
//
//   - per-request deadlines derived from a sweep-level budget
//   - retries with capped exponential backoff, deterministically
//     jittered from (seed, coord, attempt) exactly like coord's
//     supervisor, so retry storms decorrelate without making runs
//     irreproducible
//   - idempotency keys derived from request coordinates (samples are
//     pure functions of their coordinates, so a retried request is
//     always safe — the key makes that visible to the server)
//   - a per-endpoint circuit breaker (consecutive failures trip it;
//     after a cooldown a single probe half-opens it)
//   - bounded in-flight concurrency independent of the eval pool width
//   - graceful degradation: exhausted retries surface as per-request
//     errors that the eval engine turns into explicitly missing cells
//     via the existing partial-result path — never an aborted sweep,
//     never a silent gap
//
// Fault recovery is tested the same way coord's is: the suite's
// FaultServer (faultserver_test.go) wraps the real server handler with a FaultPlan (in the style of
// coord.FaultyLauncher) that injects 5xx, hangs, connection resets,
// truncated bodies, corrupt JSON, and slow-drip responses at exact
// (coord, attempt) points. See DESIGN.md, "The remote backend".
package remote

import (
	"fmt"
	"math"
)

// Wire protocol paths. The protocol is two endpoints: a GET describing
// the served backend and a POST completing a batch of requests.
const (
	PathInfo     = "/v1/info"
	PathComplete = "/v1/complete"
)

// IdemHeader carries the batch-level idempotency key on complete POSTs:
// a hash of every request key in the batch, identical across retries of
// the same batch.
const IdemHeader = "Idempotency-Key"

// wireKey is one (model, variant) line in info responses.
type wireKey struct {
	Model   string `json:"model"`
	Variant string `json:"variant"`
}

// infoResponse describes the backend behind the endpoint.
type infoResponse struct {
	Backend  string    `json:"backend"` // the served backend's Describe()
	Variants []wireKey `json:"variants"`
}

// wireRequest is one completion request by coordinate — gen.Request
// flattened to wire-stable scalars. Temperature travels as the float64
// itself: encoding/json emits the shortest round-tripping representation,
// so the server reconstructs the bit-identical float and every seed
// derived from it (the engine's truncating temperature hash included)
// matches the in-process run exactly.
type wireRequest struct {
	IdemKey     string  `json:"idem_key"`
	Model       string  `json:"model"`
	Variant     string  `json:"variant"`
	Problem     int     `json:"problem"`
	Level       int     `json:"level"`
	Temperature float64 `json:"temperature"`
	Sample      int     `json:"sample"`
	BaseSeed    int64   `json:"base_seed"`
}

// completeRequest is the POST body: a batch of requests.
type completeRequest struct {
	Requests []wireRequest `json:"requests"`
}

// wireResult is one request's outcome. Error is a per-request failure
// (unknown problem number, out-of-range level) that must not poison the
// batch's siblings; OK mirrors Backend.Complete's ok (false = the backend
// serves no line at these coordinates).
type wireResult struct {
	OK         bool    `json:"ok"`
	Completion string  `json:"completion,omitempty"`
	Mechanism  string  `json:"mechanism,omitempty"`
	Latency    float64 `json:"latency,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// completeResponse is the POST response: exactly one result per request,
// in request order. A count mismatch is a protocol violation the client
// treats like a corrupt body (retryable).
type completeResponse struct {
	Results []wireResult `json:"results"`
}

// idemKey derives the deterministic per-request idempotency key from the
// full coordinates (including the temperature bits and base seed): same
// request, same key, on every attempt of every retry.
func idemKey(q wireRequest) string {
	h := fnvString(fnvOffset, q.Model)
	h = fnvString(h, q.Variant)
	h = fnvUint(h, uint64(q.Problem))
	h = fnvUint(h, uint64(q.Level))
	h = fnvUint(h, math.Float64bits(q.Temperature))
	h = fnvUint(h, uint64(q.Sample))
	h = fnvUint(h, uint64(q.BaseSeed))
	return fmt.Sprintf("%016x", h)
}

// batchIdemKey folds the per-request keys into the batch-level
// Idempotency-Key header value.
func batchIdemKey(reqs []wireRequest) string {
	h := uint64(fnvOffset)
	for _, q := range reqs {
		h = fnvString(h, q.IdemKey)
	}
	return fmt.Sprintf("%016x", h)
}

// FNV-1a, the same hash family the eval engine keys seeds and caches
// with.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime
		u >>= 8
	}
	return h
}
