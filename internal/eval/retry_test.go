package eval

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// flakyBackend serves every request with the problem's reference body,
// failing a set number of batch calls first — enough surface to pin how
// the Runner degrades a cell on a produced failure and recovers on retry.
type flakyBackend struct {
	mu       sync.Mutex
	failNext int // batch calls that fail before the backend recovers
}

func (b *flakyBackend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temp float64, idx int, seed int64) (gen.Sample, bool) {
	return gen.Sample{Completion: p.RefBody, Latency: 1}, true
}

func (b *flakyBackend) Variants() []gen.Key                             { return nil }
func (b *flakyBackend) Prepare([]gen.Key, []*problems.Problem) []func() { return nil }
func (b *flakyBackend) Describe() string                                { return "flaky test backend" }

func (b *flakyBackend) CompleteBatch(ctx context.Context, reqs []gen.Request) []gen.BatchResult {
	b.mu.Lock()
	fail := b.failNext > 0
	if fail {
		b.failNext--
	}
	b.mu.Unlock()
	out := make([]gen.BatchResult, len(reqs))
	for i, rq := range reqs {
		if fail {
			out[i] = gen.BatchResult{Err: errors.New("injected batch failure")}
			continue
		}
		out[i] = gen.BatchResult{Sample: gen.Sample{Completion: rq.Problem.RefBody, Latency: 1}, OK: true}
	}
	return out
}

// TestFailedCellRecomputesOnRetry pins retry semantics: a cell degraded
// by a produced failure has zero stats and exactly one LastFailures
// entry, the next query recomputes it, and a successful retry clears
// LastFailures.
func TestFailedCellRecomputesOnRetry(t *testing.T) {
	be := &flakyBackend{failNext: 1}
	r := NewRunner(be, 7)
	r.Workers = 1
	q := Query{Model: model.CodeGen2B, Variant: model.FineTuned,
		Problem: problems.ByNumber(3), Level: problems.LevelMedium, Temperature: 0.5, N: 3}
	if bad := r.Run(q); bad != (CellStats{}) {
		t.Fatalf("degraded cell has non-zero stats: %+v", bad)
	}
	if len(r.LastFailures()) != 1 {
		t.Fatalf("expected one cell failure, got %v", r.LastFailures())
	}
	good := r.Run(q)
	if good.Samples != q.N || good.Passed != q.N {
		t.Fatalf("retry did not recompute the cell: %+v", good)
	}
	if len(r.LastFailures()) != 0 {
		t.Errorf("successful retry left failures: %v", r.LastFailures())
	}
}
