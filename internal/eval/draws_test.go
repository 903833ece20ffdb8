package eval

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// countingBackend serves a pure function of each sample's coordinates —
// the reference body on every third index, text that cannot compile on
// the others, and an index-dependent latency — and counts the samples it
// is asked for. failIdx, when non-negative, is a sample index the batch
// path fails with a produced error.
type countingBackend struct {
	samples atomic.Int64
	failIdx int
}

func (b *countingBackend) sample(p *problems.Problem, idx int, base int64) gen.Sample {
	s := gen.Sample{Completion: "bogus\n", Latency: 1 + float64(idx)/8 + float64(base%7)/64}
	if idx%3 == 0 {
		s.Completion = p.RefBody
	}
	return s
}

func (b *countingBackend) Complete(_ gen.Key, p *problems.Problem, _ problems.Level, _ float64, idx int, base int64) (gen.Sample, bool) {
	b.samples.Add(1)
	return b.sample(p, idx, base), true
}
func (b *countingBackend) Prepare([]gen.Key, []*problems.Problem) []func() { return nil }
func (b *countingBackend) Variants() []gen.Key                             { return nil }
func (b *countingBackend) Describe() string                                { return "test: counting backend" }

// countingBatchBackend is countingBackend on the batch path.
type countingBatchBackend struct{ countingBackend }

func (b *countingBatchBackend) CompleteBatch(_ context.Context, reqs []gen.Request) []gen.BatchResult {
	b.samples.Add(int64(len(reqs)))
	res := make([]gen.BatchResult, len(reqs))
	for i, rq := range reqs {
		if rq.SampleIdx == b.failIdx {
			res[i] = gen.BatchResult{Err: errors.New("injected sample failure")}
			continue
		}
		res[i] = gen.BatchResult{Sample: b.sample(rq.Problem, rq.SampleIdx, rq.BaseSeed), OK: true}
	}
	return res
}

func newCounting(batch bool, failIdx int) (gen.Backend, *countingBackend) {
	if batch {
		b := &countingBatchBackend{countingBackend{failIdx: failIdx}}
		return b, &b.countingBackend
	}
	b := &countingBackend{failIdx: failIdx}
	return b, b
}

// nSweep is one (model, variant, problem, level, temperature) at the
// paper's three completion counts.
func nSweep() []Query {
	var qs []Query
	for _, n := range CompletionCounts {
		qs = append(qs, Query{Model: model.CodeGen16B, Variant: model.FineTuned,
			Problem: problems.ByNumber(2), Level: problems.LevelMedium, Temperature: 0.3, N: n})
	}
	return qs
}

// TestCellsDifferingInNShareSamples pins the slot sharing: cells that
// differ only in N take each sample once (25 samples for n = 1, 10 and 25,
// not 36), on the single and the batch path at any width, and each cell's
// stats equal those of evaluating that cell alone.
func TestCellsDifferingInNShareSamples(t *testing.T) {
	qs := nSweep()
	for _, batch := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			be, counts := newCounting(batch, -1)
			r := NewRunner(be, 3)
			r.Workers = workers
			r.BatchSize = 4
			got := r.EvaluateBatch(qs)
			if n := counts.samples.Load(); n != 25 {
				t.Errorf("batch=%v workers=%d: backend asked for %d samples, want 25", batch, workers, n)
			}
			for i, q := range qs {
				alone, _ := newCounting(batch, -1)
				want := NewRunner(alone, 3).EvaluateBatch([]Query{q})[0]
				if got[i] != want || want.Samples != q.N {
					t.Errorf("batch=%v workers=%d n=%d: shared %+v, alone %+v", batch, workers, q.N, got[i], want)
				}
			}
		}
	}
}

// TestSharedSampleErrorDegradesOnlyCellsThatUseIt pins failure scoping
// under sharing: a produced error at sample 15 lies in the n=25 cell's
// prefix only, so that cell alone degrades and the n=1 and n=10 cells
// keep the stats they get on their own.
func TestSharedSampleErrorDegradesOnlyCellsThatUseIt(t *testing.T) {
	qs := nSweep()
	be, _ := newCounting(true, 15)
	r := NewRunner(be, 3)
	got, err := r.EvaluateBatchCtx(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if fails := r.Failures(); len(fails) != 1 || fails[0].Coord != qs[2].Coord() {
		t.Fatalf("failures %v, want only the n=25 cell", fails)
	}
	if got[2] != (CellStats{}) {
		t.Errorf("degraded n=25 cell has stats %+v", got[2])
	}
	for i, q := range qs[:2] {
		alone, _ := newCounting(true, 15)
		want := NewRunner(alone, 3).EvaluateBatch([]Query{q})[0]
		if got[i] != want || want.Samples != q.N {
			t.Errorf("n=%d: shared %+v, alone %+v", q.N, got[i], want)
		}
	}
}
