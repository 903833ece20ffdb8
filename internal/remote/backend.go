package remote

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/problems"
)

// backend proxies gen.Backend (and the BatchBackend fast path) over the
// wire protocol. Construction dials /v1/info so a bad endpoint fails
// fast at setup instead of degrading every cell of the sweep; the
// response's backend description is folded into Describe so sweep
// identity (core's backendTag) never aliases across different served
// backends.
type backend struct {
	t        *Transport
	desc     string
	variants []gen.Key
}

// NewBackend connects to the endpoint and returns the proxy backend.
func NewBackend(o Options) (gen.Backend, error) { return newBackend(o, shippedPolicy) }

func newBackend(o Options, policy retryPolicy) (gen.Backend, error) {
	t, err := newTransport(o, policy)
	if err != nil {
		return nil, err
	}
	desc, variants, err := t.Info(context.Background())
	if err != nil {
		return nil, fmt.Errorf("remote: endpoint %s unusable: %w", o.Endpoint, err)
	}
	return &backend{t: t, desc: "remote(" + desc + ")", variants: variants}, nil
}

// Complete proxies one sample request. The engine routes BatchBackend
// implementations through CompleteBatch (where transport failures degrade
// the cell to explicitly missing); this single-call form exists for the
// Backend contract and direct callers, which see a transport failure as a
// decline — same as a backend with no line at the coordinates.
func (b *backend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (gen.Sample, bool) {
	res := b.CompleteBatch(context.Background(), []gen.Request{{
		Key: key, Problem: p, Level: level,
		Temperature: temperature, SampleIdx: sampleIdx, BaseSeed: baseSeed,
	}})
	if res[0].Err != nil || !res[0].OK {
		return gen.Sample{}, false
	}
	return res[0].Sample, true
}

// CompleteBatch proxies a whole batch in one wire exchange — the fast
// path the eval engine cuts its work items into batches for.
func (b *backend) CompleteBatch(ctx context.Context, reqs []gen.Request) []gen.BatchResult {
	return b.t.CompleteBatch(ctx, reqs)
}

// Prepare returns nil: the served backend sets itself up server-side.
func (b *backend) Prepare([]gen.Key, []*problems.Problem) []func() { return nil }

// Variants lists the served backend's line-up, fetched at construction.
func (b *backend) Variants() []gen.Key { return append([]gen.Key(nil), b.variants...) }

// Describe tags the proxy with the served backend's own description, so
// remote(family(...)) and remote(replay(...)) never share cache entries.
func (b *backend) Describe() string { return b.desc }
