package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// flakyBackend serves every request with the problem's reference body,
// failing a set number of batch calls first and every request for one
// problem always — enough surface to pin how the Runner degrades a cell
// on a produced failure and recovers on retry.
type flakyBackend struct {
	mu       sync.Mutex
	failNext int // batch calls that fail before the backend recovers
	bad      int // number of a problem whose every request fails; 0 = none
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
		if fail || rq.Problem.Number == b.bad {
			out[i] = gen.BatchResult{Err: errors.New("injected batch failure")}
			continue
		}
		out[i] = gen.BatchResult{Sample: gen.Sample{Completion: rq.Problem.RefBody, Latency: 1}, OK: true}
	}
	return out
}

// TestFailedCellRecomputesOnRetry pins retry semantics: a cell degraded
// by a produced failure has zero stats and one Failures entry, a plan run
// that degrades it leaves it out of its result set, and the next plan run
// recomputes it. Failures stays cumulative: the earlier degradations
// really happened, so the recovered cell is still listed, once.
func TestFailedCellRecomputesOnRetry(t *testing.T) {
	be := &flakyBackend{failNext: 2}
	r := NewRunner(be, 7)
	r.Workers = 1
	q := Query{Model: model.CodeGen2B, Variant: model.FineTuned,
		Problem: problems.ByNumber(3), Level: problems.LevelMedium, Temperature: 0.5, N: 3}
	if bad := r.EvaluateBatch([]Query{q})[0]; bad != (CellStats{}) {
		t.Fatalf("degraded cell has non-zero stats: %+v", bad)
	}
	if fs := r.Failures(); len(fs) != 1 || fs[0].Coord != q.Coord() {
		t.Fatalf("expected one cell failure, got %v", fs)
	}
	p := NewPlan()
	if err := p.Add(q); err != nil {
		t.Fatal(err)
	}
	rs, err := r.RunPlanCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := rs.Get(q.Coord()); ok {
		t.Fatalf("plan run kept its failed cell as %+v", st)
	}
	rs, err = r.RunPlanCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if good, ok := rs.Get(q.Coord()); !ok || good.Samples != q.N || good.Passed != q.N {
		t.Fatalf("retry did not recompute the cell: %+v (present %v)", good, ok)
	}
	if fs := r.Failures(); len(fs) != 1 {
		t.Errorf("Failures() = %v, want the one degraded cell listed once", fs)
	}
}

// TestConcurrentRunPlanKeepsOwnFailures: two plans on one Runner, as a
// coordinator's in-process slots run them. Every call over the failing
// cell must leave it out of its result set, however the other plan's
// calls interleave; a cell served as zeros would render as a score of 0
// instead of a gap.
func TestConcurrentRunPlanKeepsOwnFailures(t *testing.T) {
	r := NewRunner(&flakyBackend{bad: 4}, 7)
	r.Workers = 1
	onePlan := func(number int) (*Plan, Coord) {
		q := Query{Model: model.CodeGen2B, Variant: model.FineTuned,
			Problem: problems.ByNumber(number), Level: problems.LevelMedium, Temperature: 0.5, N: 1}
		p := NewPlan()
		if err := p.Add(q); err != nil {
			t.Fatal(err)
		}
		return p, q.Coord()
	}
	goodPlan, goodCoord := onePlan(3)
	badPlan, badCoord := onePlan(4)

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			rs, err := r.RunPlanCtx(context.Background(), goodPlan)
			if err != nil {
				done <- err
				return
			}
			if st, ok := rs.Get(goodCoord); !ok || st.Samples != 1 {
				done <- fmt.Errorf("good cell served as %+v (present %v)", st, ok)
				return
			}
		}
	}()
	served := 0
	for range 20000 {
		rs, err := r.RunPlanCtx(context.Background(), badPlan)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rs.Get(badCoord); ok {
			served++
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if served != 0 {
		t.Fatalf("failed cell served as zeros in %d of 20000 calls", served)
	}
	if fs := r.Failures(); len(fs) != 1 || fs[0].Coord != badCoord {
		t.Fatalf("Failures() = %v, want only the failing cell", fs)
	}
}
