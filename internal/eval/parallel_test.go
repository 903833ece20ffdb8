package eval

import (
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/verdict"
)

// TestParallelMatchesSerial is the determinism contract of the parallel
// engine: the same seed must produce byte-identical Table III/IV strings
// whether the sweep runs on one worker or eight. CellStats comparison via
// == also pins the float latency sums bit-for-bit, not just the rendered
// digits.
func TestParallelMatchesSerial(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 60})
	serial := NewFamilyRunner(f, 99)
	serial.Workers = 1
	parallel := NewFamilyRunner(f, 99)
	parallel.Workers = 8

	opts := SweepOptions{N: 5, Temperatures: []float64{0.1, 0.5}}
	mv := ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}

	for _, d := range problems.Difficulties {
		if a, b := TableIIICell(serial, mv, d, opts), TableIIICell(parallel, mv, d, opts); a != b {
			t.Errorf("Table III %s: serial %v != parallel %v", d, a, b)
		}
		for _, l := range problems.Levels {
			if a, b := TableIVCell(serial, mv, d, l, opts), TableIVCell(parallel, mv, d, l, opts); a != b {
				t.Errorf("Table IV %s/%s: serial %v != parallel %v", d, l, a, b)
			}
		}
	}

	q := Query{Model: mv.Model, Variant: mv.Variant,
		Problem: problems.ByNumber(3), Level: problems.LevelMedium, Temperature: 0.3, N: 25}
	if a, b := serial.EvaluateBatch([]Query{q})[0], parallel.EvaluateBatch([]Query{q})[0]; a != b {
		t.Errorf("cell stats diverge: serial %+v parallel %+v", a, b)
	}
}

// TestSamplePrefixProperty checks that the hashed per-sample streams give
// n-sweeps a common prefix: sample i of an n=25 query is the same draw as
// sample i of the n=5 query at the same coordinates.
func TestSamplePrefixProperty(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 60})
	gen, ok := f.Generator(model.CodeGen2B, model.FineTuned)
	if !ok {
		t.Fatal("no generator")
	}
	p := problems.ByNumber(4)
	small := gen.CompleteN(p, problems.LevelLow, 0.3, 5, 777)
	big := gen.CompleteN(p, problems.LevelLow, 0.3, 25, 777)
	for i := range small {
		if small[i] != big[i] {
			t.Fatalf("sample %d differs between n=5 and n=25 sweeps", i)
		}
	}
}

// TestConcurrentRunnerStress hammers one Runner from many goroutines,
// mixing Run and EvaluateBatch across overlapping queries. Run under
// -race (the Makefile's race target) this validates the sharded cache,
// the per-problem bank once-init, and the shared testbench ASTs.
func TestConcurrentRunnerStress(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 23, CorpusFiles: 60})
	r := NewFamilyRunner(f, 7)
	r.Workers = 4

	mvs := []ModelVariant{
		{Model: model.CodeGen2B, Variant: model.FineTuned},
		{Model: model.CodeGen16B, Variant: model.FineTuned},
		{Model: model.Codex, Variant: model.Pretrained},
	}
	want := map[int]CellStats{}
	for gi, mv := range mvs {
		q := Query{Model: mv.Model, Variant: mv.Variant,
			Problem: problems.ByNumber(gi + 1), Level: problems.LevelLow, Temperature: 0.1, N: 4}
		want[gi] = r.EvaluateBatch([]Query{q})[0]
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		gi := g % len(mvs)
		mv := mvs[gi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := Query{Model: mv.Model, Variant: mv.Variant,
				Problem: problems.ByNumber(gi + 1), Level: problems.LevelLow, Temperature: 0.1, N: 4}
			for i := 0; i < 3; i++ {
				if got := r.EvaluateBatch([]Query{q})[0]; got != want[gi] {
					t.Errorf("goroutine %d: stats drifted: %+v != %+v", gi, got, want[gi])
					return
				}
				r.EvaluateBatch([]Query{
					q,
					{Model: mv.Model, Variant: mv.Variant,
						Problem: problems.ByNumber(5), Level: problems.LevelMedium, Temperature: 0.5, N: 2},
				})
			}
		}()
	}
	wg.Wait()
}

// blockingBackend parks every Complete until released, so a test can
// cancel a batch with a known number of items in flight and count exactly
// how much work the pool still performed. Each batch gets tasks prepare
// tasks, which count their runs in prepared.
type blockingBackend struct {
	release  chan struct{}
	calls    atomic.Int64
	tasks    int
	prepared atomic.Int64
}

func (b *blockingBackend) Complete(gen.Key, *problems.Problem, problems.Level, float64, int, int64) (gen.Sample, bool) {
	b.calls.Add(1)
	<-b.release
	return gen.Sample{Completion: "bogus\n", Latency: 1}, true
}
func (b *blockingBackend) Prepare([]gen.Key, []*problems.Problem) []func() {
	tasks := make([]func(), b.tasks)
	for i := range tasks {
		tasks[i] = func() { b.prepared.Add(1) }
	}
	return tasks
}
func (b *blockingBackend) Variants() []gen.Key { return nil }
func (b *blockingBackend) Describe() string    { return "test: blocking backend" }

// blockingBatchBackend is blockingBackend with the batch fast path: every
// CompleteBatch counts as one call and parks until released.
type blockingBatchBackend struct{ blockingBackend }

func (b *blockingBatchBackend) CompleteBatch(_ context.Context, reqs []gen.Request) []gen.BatchResult {
	b.calls.Add(1)
	<-b.release
	res := make([]gen.BatchResult, len(reqs))
	for i := range res {
		res[i] = gen.BatchResult{Sample: gen.Sample{Completion: "bogus\n", Latency: 1}, OK: true}
	}
	return res
}

// blockingBackends are the two pool paths under the cancellation tests:
// one Complete call per item, and one CompleteBatch call per batch of
// BatchSize 4. Each entry builds a fresh backend and reports its counters.
var blockingBackends = []struct {
	name string
	make func(tasks int) (gen.Backend, *blockingBackend)
}{
	{"single", func(tasks int) (gen.Backend, *blockingBackend) {
		b := &blockingBackend{release: make(chan struct{}), tasks: tasks}
		return b, b
	}},
	{"batch", func(tasks int) (gen.Backend, *blockingBackend) {
		b := &blockingBatchBackend{blockingBackend{release: make(chan struct{}), tasks: tasks}}
		return b, &b.blockingBackend
	}},
}

// TestEvaluateBatchCtxCancelStopsPool pins the shutdown contract a
// supervising coordinator (and vgen-eval's SIGINT handler) relies on:
// canceling the context stops every worker from claiming further work,
// drains the pool without leaking goroutines, and returns ctx's error —
// with only the calls already in flight (items, or batches on the batch
// path) ever reaching the backend.
func TestEvaluateBatchCtxCancelStopsPool(t *testing.T) {
	for _, tc := range blockingBackends {
		t.Run(tc.name, func(t *testing.T) {
			backend, b := tc.make(0)
			r := NewRunner(backend, 1)
			const w = 4
			r.Workers = w
			r.BatchSize = 4
			const items = 1000
			qs := []Query{{
				Model: model.CodeGen2B, Variant: model.FineTuned,
				Problem: problems.ByNumber(1), Level: problems.LevelLow, Temperature: 0.1, N: items,
			}}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			var out []CellStats
			var err error
			go func() {
				defer close(done)
				out, err = r.EvaluateBatchCtx(ctx, qs)
			}()

			for b.calls.Load() == 0 { // wait until the pool is mid-flight
				time.Sleep(time.Millisecond)
			}
			cancel()
			close(b.release) // let the in-flight calls finish
			<-done

			if out != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled batch returned (%v, %v), want (nil, context.Canceled)", out, err)
			}
			// Workers check ctx before each claim, so only the w calls in
			// flight when cancel landed may have reached the backend;
			// anything more means cancellation leaked.
			if got := b.calls.Load(); got > w {
				t.Errorf("pool made %d backend calls for %d items after cancellation, want <= %d", got, items, w)
			}
		})
	}
}

// TestEvaluateBatchCtxSerialPreCanceled: at every width and on both pool
// paths, the pool must honor an already-canceled context before touching
// the backend at all — no prepare task and no sample.
func TestEvaluateBatchCtxSerialPreCanceled(t *testing.T) {
	for _, tc := range blockingBackends {
		for _, w := range []int{1, 4} {
			backend, b := tc.make(3)
			close(b.release)
			r := NewRunner(backend, 1)
			r.Workers = w
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			out, err := r.EvaluateBatchCtx(ctx, []Query{{
				Model: model.CodeGen2B, Variant: model.FineTuned,
				Problem: problems.ByNumber(2), Level: problems.LevelLow, Temperature: 0.1, N: 5,
			}})
			if out != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, workers %d: pre-canceled batch returned (%v, %v)", tc.name, w, out, err)
			}
			if got, prep := b.calls.Load(), b.prepared.Load(); got != 0 || prep != 0 {
				t.Errorf("%s, workers %d: pool made %d backend calls and ran %d prepare tasks under a pre-canceled context", tc.name, w, got, prep)
			}
		}
	}
}

// prepBackend serves a fixed completion and hands every batch nTasks
// prepare tasks, counting each task's runs and recording the keys and
// problems each Prepare call received.
type prepBackend struct {
	ran []atomic.Int64

	mu    sync.Mutex
	keys  [][]gen.Key
	probs [][]int
}

func (b *prepBackend) Complete(gen.Key, *problems.Problem, problems.Level, float64, int, int64) (gen.Sample, bool) {
	return gen.Sample{Completion: "  prepared\n", Latency: 1}, true
}
func (b *prepBackend) Prepare(keys []gen.Key, ps []*problems.Problem) []func() {
	b.mu.Lock()
	b.keys = append(b.keys, keys)
	var nums []int
	for _, p := range ps {
		nums = append(nums, p.Number)
	}
	b.probs = append(b.probs, nums)
	b.mu.Unlock()
	tasks := make([]func(), len(b.ran))
	for i := range tasks {
		tasks[i] = func() { b.ran[i].Add(1) }
	}
	return tasks
}
func (b *prepBackend) Variants() []gen.Key { return nil }
func (b *prepBackend) Describe() string    { return "test: prepare backend" }

// TestPrepareTasksRunOncePerBatch pins the prepare phase: every task the
// backend returns runs exactly once per batch, at one worker and at four,
// through the single-call path and through a gen.Recorder (a
// BatchBackend, so the batched path), and Prepare sees the batch's
// distinct keys and problems in plan order.
func TestPrepareTasksRunOncePerBatch(t *testing.T) {
	ft := gen.Key{Model: string(model.CodeGen2B), Variant: gen.VariantFT}
	pt := gen.Key{Model: string(model.Codex), Variant: gen.VariantPT}
	qs := []Query{
		{Model: model.CodeGen2B, Variant: model.FineTuned, Problem: problems.ByNumber(3), Level: problems.LevelLow, Temperature: 0.1, N: 20},
		{Model: model.Codex, Variant: model.Pretrained, Problem: problems.ByNumber(3), Level: problems.LevelHigh, Temperature: 0.5, N: 20},
		{Model: model.CodeGen2B, Variant: model.FineTuned, Problem: problems.ByNumber(1), Level: problems.LevelLow, Temperature: 0.1, N: 20},
	}
	for _, w := range []int{1, 4} {
		for _, record := range []bool{false, true} {
			b := &prepBackend{ran: make([]atomic.Int64, 5)}
			var backend gen.Backend = b
			if record {
				backend = gen.NewRecorder(b, io.Discard)
			}
			r := NewRunner(backend, 1)
			r.Workers = w
			for batch := int64(1); batch <= 2; batch++ {
				out := r.EvaluateBatch(qs)
				if out[0].Samples != 20 || out[2].Samples != 20 {
					t.Fatalf("workers %d record %v: stats %+v", w, record, out)
				}
				for i := range b.ran {
					if got := b.ran[i].Load(); got != batch {
						t.Errorf("workers %d record %v: task %d ran %d times after %d batches", w, record, i, got, batch)
					}
				}
			}
			for i := range b.keys {
				if !slices.Equal(b.keys[i], []gen.Key{ft, pt}) || !slices.Equal(b.probs[i], []int{3, 1}) {
					t.Errorf("workers %d record %v: Prepare got keys %v problems %v", w, record, b.keys[i], b.probs[i])
				}
			}
		}
	}
}

// TestSharedSweepMatchesUnsharedAtAnyWidth pins the Runner-level contract
// the check scripts rely on: cell statistics are identical whether plans
// are shared (default) or compiled fresh per sample (UnsharedPlans), at
// one worker or eight, and with the verdict memo starved to one entry so
// that eight workers evict and recompute verdicts under each other.
func TestSharedSweepMatchesUnsharedAtAnyWidth(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 29, CorpusFiles: 60})
	mk := func(unshared bool, workers int) *Runner {
		r := NewFamilyRunner(f, 53)
		r.UnsharedPlans = unshared
		r.Workers = workers
		return r
	}
	runners := []*Runner{mk(true, 1), mk(false, 1), mk(false, 8)}
	names := []string{"unshared/w1", "shared/w1", "shared/w8"}
	mv := ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	var qs []Query
	var wants []CellStats
	for _, pn := range []int{2, 6, 11} {
		for _, temp := range []float64{0.1, 0.3, 0.5, 0.8} {
			q := Query{Model: mv.Model, Variant: mv.Variant,
				Problem: problems.ByNumber(pn), Level: problems.LevelHigh, Temperature: temp, N: 5}
			want := runners[0].EvaluateBatch([]Query{q})[0]
			for i, r := range runners[1:] {
				if got := r.EvaluateBatch([]Query{q})[0]; got != want {
					t.Errorf("problem %d t=%.1f: %s diverged from %s: %+v != %+v",
						pn, temp, names[i+1], names[0], got, want)
				}
			}
			qs, wants = append(qs, q), append(wants, want)
		}
	}

	// The starved runner goes last, so the runners above share a memo
	// at its default budget.
	verdict.SetPlanCacheBytes(1)
	t.Cleanup(func() { verdict.SetPlanCacheBytes(0) })
	starved := mk(false, 8)
	for i, q := range qs {
		if got := starved.EvaluateBatch([]Query{q})[0]; got != wants[i] {
			t.Errorf("problem %d t=%.1f: starved/w8 diverged from %s: %+v != %+v",
				q.Problem.Number, q.Temperature, names[0], got, wants[i])
		}
	}
	if st := verdict.SharedStats(); st.DesignEvicted == 0 {
		t.Fatalf("the starved memo never evicted; the sweep exercised nothing: %+v", st)
	}
}

// TestZeroValueRunnerSweeps pins that a Runner needs no constructor: a
// literal with only Backend and Seed set sweeps to the same cell
// statistics as NewRunner.
func TestZeroValueRunnerSweeps(t *testing.T) {
	b := gen.NewFamilyBackend(model.NewFamily(model.Config{Seed: 29, CorpusFiles: 60}))
	var qs []Query
	for _, pn := range []int{1, 6} {
		for _, l := range problems.Levels {
			qs = append(qs, Query{Model: model.CodeGen16B, Variant: model.FineTuned,
				Problem: problems.ByNumber(pn), Level: l, Temperature: 0.3, N: 6})
		}
	}
	want := NewRunner(b, 7).EvaluateBatch(qs)
	literal := &Runner{Backend: b, Seed: 7}
	if got := literal.EvaluateBatch(qs); !slices.Equal(got, want) {
		t.Errorf("Runner literal swept %+v, NewRunner %+v", got, want)
	}
}
