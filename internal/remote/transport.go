package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/gen"
)

// Options configure the remote backend's transport: the deployment
// settings a caller chooses. The retry schedule, in-flight bound and
// circuit breaker are the package constants below.
type Options struct {
	// Endpoint is the completion service base URL (http://host:port).
	// Required: NewBackend fails without it.
	Endpoint string

	// AuthToken, when non-empty, is sent as a bearer token and must match
	// the server's configured token. CLIs read it from an env var
	// (-auth-env) so tokens never land in argv or shell history.
	AuthToken string

	// Timeout bounds one HTTP attempt (zero means defaultTimeout); Budget
	// bounds the whole sweep (every request shares the budget deadline; a
	// request past it fails without retrying; zero means none).
	Timeout time.Duration
	Budget  time.Duration

	// Seed feeds the deterministic backoff jitter; use the sweep seed.
	Seed int64
}

// The transport's fixed settings, sized for a LAN/loopback completion
// service. A request gets maxAttempts attempts; the delay before each
// retry doubles from backoffBase up to backoffCap, deterministically
// jittered from (Seed, request coordinates, attempt). At most maxInFlight
// HTTP requests run at once, independent of the evaluation pool width.
// breakerThreshold consecutive transport failures trip the endpoint's
// circuit breaker; after breakerCooldown it half-opens for one probe.
const (
	defaultTimeout   = 30 * time.Second
	maxAttempts      = 4
	backoffBase      = 50 * time.Millisecond
	backoffCap       = 2 * time.Second
	maxInFlight      = 16
	breakerThreshold = 5
	breakerCooldown  = time.Second
)

// retryPolicy is the part of the fixed settings the package's fault tests
// tighten (a millisecond schedule, a breaker that never trips) through
// newBackend; every shipped transport runs shippedPolicy.
type retryPolicy struct {
	attempts                int
	backoffBase, backoffCap time.Duration
	breakerThreshold        int
}

var shippedPolicy = retryPolicy{maxAttempts, backoffBase, backoffCap, breakerThreshold}

// withDefaults validates o's endpoint and returns a copy with a zero
// Timeout resolved to defaultTimeout.
func withDefaults(o Options) (Options, error) {
	if !strings.HasPrefix(o.Endpoint, "http://") && !strings.HasPrefix(o.Endpoint, "https://") {
		return o, fmt.Errorf("remote: endpoint %q is not an http(s) URL", o.Endpoint)
	}
	if o.Timeout <= 0 {
		o.Timeout = defaultTimeout
	}
	return o, nil
}

// Transport is the robust HTTP client for the wire protocol: retrying,
// circuit-broken, concurrency-bounded, budget-bounded. Safe for
// concurrent use — the eval pool calls it from every worker.
type Transport struct {
	cfg      Options // defaults resolved
	policy   retryPolicy
	client   *http.Client
	br       *breaker
	sem      chan struct{} // bounds in-flight HTTP attempts
	deadline time.Time     // sweep budget deadline; zero means none

	// sleep waits between attempts; injectable so retry tests don't spend
	// wall clock. The default honors ctx cancellation.
	sleep func(ctx context.Context, d time.Duration) error
}

// newTransport builds a transport over o, with a zero Timeout resolved to
// defaultTimeout, retrying on policy. The sweep-level budget is anchored
// here: the deadline is Budget from construction time, and every request
// the transport ever sends shares it (per-attempt deadlines are
// min(Timeout, remaining budget) via nested contexts).
func newTransport(o Options, policy retryPolicy) (*Transport, error) {
	cfg, err := withDefaults(o)
	if err != nil {
		return nil, err
	}
	t := &Transport{
		cfg:    cfg,
		policy: policy,
		client: &http.Client{
			// No client-level timeout: per-attempt contexts own the clock,
			// and a fixed client timeout would silently cap the budget math.
			Transport: &http.Transport{
				MaxIdleConns:        maxInFlight,
				MaxIdleConnsPerHost: maxInFlight, // pool one conn per in-flight slot
			},
		},
		br:    newBreaker(policy.breakerThreshold, breakerCooldown),
		sem:   make(chan struct{}, maxInFlight),
		sleep: sleepCtx,
	}
	if cfg.Budget > 0 {
		t.deadline = time.Now().Add(cfg.Budget)
	}
	return t, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusError is a non-2xx HTTP response.
type statusError struct{ code int }

func (e *statusError) Error() string { return fmt.Sprintf("http status %d", e.code) }

// errBreakerOpen is an attempt rejected locally by the open circuit
// breaker — no bytes hit the wire.
var errBreakerOpen = errors.New("circuit breaker open")

// errResponseTooLarge is a response body over maxResponseBytes.
var errResponseTooLarge = fmt.Errorf("response body over %d bytes", maxResponseBytes)

// retryable classifies attempt errors. Network faults, timeouts, body
// truncation, corrupt JSON, 5xx/429/408 statuses, and breaker rejections
// are transient; other 4xx (auth, malformed or oversized request) and an
// oversized response are deterministic — a batch's samples are pure
// functions of its coordinates — and retrying them only burns budget.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests || se.code == http.StatusRequestTimeout
	}
	return err != errResponseTooLarge
}

// backoff is the delay before the next attempt: exponential from
// backoffBase, capped at backoffCap, with deterministic jitter in
// [d/2, d) hashed from (seed, coord, attempt) — the coordinator
// supervisor's formula, keyed by request coordinates instead of shard
// index, so transport retry storms decorrelate reproducibly.
func (t *Transport) backoff(coordHash uint64, attempt int) time.Duration {
	d := t.policy.backoffBase
	for i := 1; i < attempt && d < t.policy.backoffCap; i++ {
		d *= 2
	}
	if d > t.policy.backoffCap {
		d = t.policy.backoffCap
	}
	h := splitmix64(uint64(t.cfg.Seed) ^ splitmix64(coordHash) ^ uint64(attempt)<<20)
	half := d / 2
	return half + time.Duration(uint64(half)*(h&1023)/1024)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// do runs one wire exchange to completion: POST (or GET when body is
// nil), bounded in-flight, through the breaker, retried with backoff
// under the budget. decode validates and consumes the response body
// inside the retry loop, so a body that arrived intact but corrupt
// (mangled JSON, short result count) retries exactly like a 503.
func (t *Transport) do(ctx context.Context, path string, body []byte, idem string, coordHash uint64, decode func([]byte) error) error {
	if !t.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, t.deadline)
		defer cancel()
	}
	var lastErr error
	for attempt := 1; attempt <= t.policy.attempts; attempt++ {
		if attempt > 1 {
			if err := t.sleep(ctx, t.backoff(coordHash, attempt-1)); err != nil {
				break // budget or caller context exhausted mid-backoff
			}
		}
		if err := ctx.Err(); err != nil {
			break
		}
		data, err := t.attempt(ctx, path, body, idem)
		if err == nil {
			err = decode(data)
			if err == nil {
				t.br.Success()
				return nil
			}
		}
		lastErr = err
		if err != errBreakerOpen {
			// Breaker rejections never reached the endpoint: they are not
			// evidence about its health, only about the breaker's own state.
			t.br.Failure()
		}
		if !retryable(err) {
			return fmt.Errorf("remote: %s attempt %d: %w", path, attempt, err)
		}
	}
	if err := ctx.Err(); err != nil {
		reason := "context canceled"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = "sweep budget exhausted"
		}
		if lastErr == nil {
			lastErr = err
		}
		return fmt.Errorf("remote: %s: %s: last error: %w", path, reason, lastErr)
	}
	return fmt.Errorf("remote: %s: %d attempts failed: last error: %w", path, t.policy.attempts, lastErr)
}

// attempt runs one HTTP exchange under the per-attempt deadline and the
// in-flight bound.
func (t *Transport) attempt(ctx context.Context, path string, body []byte, idem string) ([]byte, error) {
	if !t.br.Allow() {
		return nil, errBreakerOpen
	}
	select {
	case t.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-t.sem }()

	actx, cancel := context.WithTimeout(ctx, t.cfg.Timeout)
	defer cancel()

	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, t.cfg.Endpoint+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idem != "" {
		req.Header.Set(IdemHeader, idem)
	}
	if t.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+t.cfg.AuthToken)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // drain so the conn is reusable
		return nil, &statusError{code: resp.StatusCode}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, err // truncation, reset, slow-drip timeout mid-body
	}
	if len(data) > maxResponseBytes {
		return nil, errResponseTooLarge
	}
	return data, nil
}

// Info fetches the served backend's description and variant line-up.
func (t *Transport) Info(ctx context.Context) (desc string, variants []gen.Key, err error) {
	var info infoResponse
	err = t.do(ctx, PathInfo, nil, "", 0, func(data []byte) error {
		info = infoResponse{}
		if err := json.Unmarshal(data, &info); err != nil {
			return fmt.Errorf("corrupt info response: %w", err)
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	for _, k := range info.Variants {
		variants = append(variants, gen.Key{Model: k.Model, Variant: k.Variant})
	}
	return info.Backend, variants, nil
}

// CompleteBatch runs one batch of completion requests through the wire,
// returning exactly one result per request in request order. Transport
// failures (after retries) land in every result's Err; per-request
// server-side errors land only in their own entry, leaving siblings
// intact.
func (t *Transport) CompleteBatch(ctx context.Context, reqs []gen.Request) []gen.BatchResult {
	out := make([]gen.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	wreqs := make([]wireRequest, len(reqs))
	for i, q := range reqs {
		wreqs[i] = wireRequest{
			Model: q.Key.Model, Variant: q.Key.Variant,
			Problem: q.Problem.Number, Level: int(q.Level),
			Temperature: q.Temperature, Sample: q.SampleIdx, BaseSeed: q.BaseSeed,
		}
		wreqs[i].IdemKey = idemKey(wreqs[i])
	}
	body, err := json.Marshal(completeRequest{Requests: wreqs})
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	// Jitter is keyed by the first request's coordinates: two workers
	// retrying different batches back off on decorrelated schedules.
	coordHash := fnvString(fnvOffset, wreqs[0].IdemKey)
	var resp completeResponse
	err = t.do(ctx, PathComplete, body, batchIdemKey(wreqs), coordHash, func(data []byte) error {
		resp = completeResponse{}
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("corrupt complete response: %w", err)
		}
		if len(resp.Results) != len(reqs) {
			return fmt.Errorf("protocol violation: %d results for %d requests", len(resp.Results), len(reqs))
		}
		return nil
	})
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i, r := range resp.Results {
		switch {
		case r.Error != "":
			out[i].Err = fmt.Errorf("remote: server: %s", r.Error)
		case r.OK:
			out[i] = gen.BatchResult{Sample: gen.Sample{Completion: r.Completion, Mechanism: r.Mechanism, Latency: r.Latency}, OK: true}
		}
	}
	return out
}
