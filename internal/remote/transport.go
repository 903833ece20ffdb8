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

// Transport defaults, applied by NewTransport for zero-valued Config
// fields. The numbers are sized for a LAN/loopback completion service;
// CLIs expose every knob.
const (
	defaultTimeout          = 30 * time.Second
	defaultMaxAttempts      = 4
	defaultBackoffBase      = 50 * time.Millisecond
	defaultBackoffCap       = 2 * time.Second
	defaultMaxInFlight      = 16
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = time.Second
)

// Config parameterizes the transport. It is gen.RemoteOptions with the
// defaults resolved; construct one with configFrom or fill it directly in
// tests.
type Config struct {
	Endpoint  string
	AuthToken string

	Timeout time.Duration // per-attempt deadline
	Budget  time.Duration // sweep-level deadline; 0 means none

	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration

	MaxInFlight int

	BreakerThreshold int
	BreakerCooldown  time.Duration

	Seed int64
}

// configFrom resolves registry options into a Config with defaults.
func configFrom(o gen.RemoteOptions) Config {
	return Config{
		Endpoint: o.Endpoint, AuthToken: o.AuthToken,
		Timeout: o.Timeout, Budget: o.Budget,
		MaxAttempts: o.MaxAttempts, BackoffBase: o.BackoffBase, BackoffCap: o.BackoffCap,
		MaxInFlight:      o.MaxInFlight,
		BreakerThreshold: o.BreakerThreshold, BreakerCooldown: o.BreakerCooldown,
		Seed: o.Seed,
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.Endpoint == "" {
		return c, errors.New("remote: endpoint required (-endpoint)")
	}
	if !strings.HasPrefix(c.Endpoint, "http://") && !strings.HasPrefix(c.Endpoint, "https://") {
		return c, fmt.Errorf("remote: endpoint %q is not an http(s) URL", c.Endpoint)
	}
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = defaultMaxAttempts
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = defaultBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = defaultBackoffCap
	}
	if c.BackoffCap < c.BackoffBase {
		c.BackoffCap = c.BackoffBase
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = defaultMaxInFlight
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = defaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = defaultBreakerCooldown
	}
	return c, nil
}

// Transport is the robust HTTP client for the wire protocol: retrying,
// circuit-broken, concurrency-bounded, budget-bounded. Safe for
// concurrent use — the eval pool calls it from every worker.
type Transport struct {
	cfg      Config
	client   *http.Client
	br       *breaker
	sem      chan struct{} // bounds in-flight HTTP attempts
	deadline time.Time     // sweep budget deadline; zero means none

	// sleep waits between attempts; injectable so retry tests don't spend
	// wall clock. The default honors ctx cancellation.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewTransport builds a transport over cfg. The sweep-level budget is
// anchored here: the deadline is Budget from construction time, and every
// request the transport ever sends shares it (per-attempt deadlines are
// min(Timeout, remaining budget) via nested contexts).
func NewTransport(cfg Config) (*Transport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Transport{
		cfg: cfg,
		client: &http.Client{
			// No client-level timeout: per-attempt contexts own the clock,
			// and a fixed client timeout would silently cap the budget math.
			Transport: &http.Transport{
				MaxIdleConns:        cfg.MaxInFlight,
				MaxIdleConnsPerHost: cfg.MaxInFlight, // pool one conn per in-flight slot
			},
		},
		br:    newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		sem:   make(chan struct{}, cfg.MaxInFlight),
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

// retryable classifies attempt errors. Network faults, timeouts, body
// truncation, corrupt JSON, 5xx/429/408 statuses, and breaker rejections
// are transient; other 4xx (auth, malformed request) are deterministic
// and retrying them only burns budget.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests || se.code == http.StatusRequestTimeout
	}
	return true
}

// backoff is the delay before the next attempt: exponential from
// BackoffBase, capped at BackoffCap, with deterministic jitter in
// [d/2, d) hashed from (seed, coord, attempt) — the coordinator
// supervisor's formula, keyed by request coordinates instead of shard
// index, so transport retry storms decorrelate reproducibly.
func (t *Transport) backoff(coordHash uint64, attempt int) time.Duration {
	d := t.cfg.BackoffBase
	for i := 1; i < attempt && d < t.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > t.cfg.BackoffCap {
		d = t.cfg.BackoffCap
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
	for attempt := 1; attempt <= t.cfg.MaxAttempts; attempt++ {
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
	return fmt.Errorf("remote: %s: %d attempts failed: last error: %w", path, t.cfg.MaxAttempts, lastErr)
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
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err // truncation, reset, slow-drip timeout mid-body
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
