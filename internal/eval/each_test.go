package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// eachPlan is a plan whose cells share draws: every (problem, level,
// temperature) of one line at n = 1, 10 and 25, interleaved so that the
// cells of one draw are not neighbours in plan order.
func eachPlan(t *testing.T) *Plan {
	t.Helper()
	p := NewPlan()
	for _, n := range CompletionCounts {
		for _, num := range []int{1, 4, 9} {
			for _, l := range []problems.Level{problems.LevelLow, problems.LevelHigh} {
				for _, temp := range []float64{0.1, 0.7} {
					q := Query{Model: model.CodeGen16B, Variant: model.FineTuned,
						Problem: problems.ByNumber(num), Level: l, Temperature: temp, N: n}
					if err := p.Add(q); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return p
}

// cellLog records what RunPlanEach hands out, and how often each index.
type cellLog struct {
	mu    sync.Mutex
	calls []int
	st    []CellStats
	ok    []bool
}

func newCellLog(n int) *cellLog {
	return &cellLog{calls: make([]int, n), st: make([]CellStats, n), ok: make([]bool, n)}
}

func (l *cellLog) each(i int, st CellStats, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls[i]++
	l.st[i], l.ok[i] = st, ok
}

// TestRunPlanEachMatchesRunPlan pins the streaming contract: RunPlanEach
// hands out every planned cell exactly once, with the stats RunPlanCtx
// collects for it, at any width and on both pool paths; a produced
// failure arrives as ok == false on exactly the cells whose prefix holds
// it, and Failures lists them in plan order; cancellation stops the pool.
func TestRunPlanEachMatchesRunPlan(t *testing.T) {
	p := eachPlan(t)
	fam := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 60})
	backends := []struct {
		name string
		make func() gen.Backend
	}{
		{"family", func() gen.Backend { return gen.NewFamilyBackend(fam) }},
		{"mutant", func() gen.Backend { return gen.NewMutant() }},
	}
	for _, be := range backends {
		want, err := NewRunner(be.make(), 5).RunPlanCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() != p.Len() {
			t.Fatalf("%s: RunPlanCtx served %d of %d cells", be.name, want.Len(), p.Len())
		}
		for _, w := range []int{1, 2, 8} {
			r := NewRunner(be.make(), 5)
			r.Workers = w
			log := newCellLog(p.Len())
			if err := r.RunPlanEach(context.Background(), p, log.each); err != nil {
				t.Fatal(err)
			}
			for i, q := range p.Queries() {
				st, _ := want.Get(q.Coord())
				if log.calls[i] != 1 || !log.ok[i] || log.st[i] != st {
					t.Errorf("%s workers=%d cell %d (n=%d): handed out %d times, ok %v, %+v; RunPlanCtx %+v",
						be.name, w, i, q.N, log.calls[i], log.ok[i], log.st[i], st)
				}
			}
		}
	}

	// Sample 12 fails: it lies in the prefix of every n = 25 cell, so those
	// and only those degrade, and they are listed in plan order.
	for _, w := range []int{1, 2, 8} {
		be, _ := newCounting(true, 12)
		r := NewRunner(be, 5)
		r.Workers = w
		r.BatchSize = 3
		log := newCellLog(p.Len())
		if err := r.RunPlanEach(context.Background(), p, log.each); err != nil {
			t.Fatal(err)
		}
		var wantFailed []Coord
		for i, q := range p.Queries() {
			if q.N > 12 {
				wantFailed = append(wantFailed, q.Coord())
			}
			if log.calls[i] != 1 || log.ok[i] != (q.N <= 12) {
				t.Errorf("workers=%d cell %d (n=%d): handed out %d times with ok %v", w, i, q.N, log.calls[i], log.ok[i])
			}
			if !log.ok[i] && log.st[i] != (CellStats{}) {
				t.Errorf("workers=%d: degraded cell %d has stats %+v", w, i, log.st[i])
			}
		}
		var gotFailed []Coord
		for _, f := range r.Failures() {
			gotFailed = append(gotFailed, f.Coord)
		}
		if fmt.Sprint(gotFailed) != fmt.Sprint(wantFailed) {
			t.Errorf("workers=%d: Failures lists %v, want %v", w, gotFailed, wantFailed)
		}
	}

	// Cancellation: one 1000-sample cell over a backend that parks every
	// call. Only the calls in flight when cancel lands reach the backend,
	// the unfinished cell is never handed out, and ctx's error comes back.
	for _, tc := range blockingBackends {
		backend, b := tc.make(0)
		r := NewRunner(backend, 1)
		const w = 4
		r.Workers = w
		r.BatchSize = 4
		cp := NewPlan()
		if err := cp.Add(Query{Model: model.CodeGen2B, Variant: model.FineTuned,
			Problem: problems.ByNumber(1), Level: problems.LevelLow, Temperature: 0.1, N: 1000}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		log := newCellLog(1)
		done := make(chan error)
		go func() { done <- r.RunPlanEach(ctx, cp, log.each) }()
		for b.calls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(b.release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled RunPlanEach returned %v", tc.name, err)
		}
		if got := b.calls.Load(); got > w {
			t.Errorf("%s: pool made %d backend calls after cancellation, want <= %d", tc.name, got, w)
		}
		if log.calls[0] != 0 {
			t.Errorf("%s: an unfinished cell was handed out", tc.name)
		}
	}
}
