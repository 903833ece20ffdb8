package eval

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/vlog"
)

// TestParallelMatchesSerial is the determinism contract of the parallel
// engine: the same seed must produce byte-identical Table III/IV strings
// whether the sweep runs on one worker or eight. CellStats comparison via
// == also pins the float latency sums bit-for-bit, not just the rendered
// digits.
func TestParallelMatchesSerial(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 60, VocabSize: 300})
	serial := NewFamilyRunner(f, 99)
	serial.Workers = 1
	parallel := NewFamilyRunner(f, 99)
	parallel.Workers = 8

	opts := SweepOptions{N: 5, Temperatures: []float64{0.1, 0.5}}
	mv := ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}

	for _, d := range problems.Difficulties {
		if a, b := serial.TableIIICell(mv, d, opts), parallel.TableIIICell(mv, d, opts); a != b {
			t.Errorf("Table III %s: serial %v != parallel %v", d, a, b)
		}
		for _, l := range problems.Levels {
			if a, b := serial.TableIVCell(mv, d, l, opts), parallel.TableIVCell(mv, d, l, opts); a != b {
				t.Errorf("Table IV %s/%s: serial %v != parallel %v", d, l, a, b)
			}
		}
	}

	q := Query{Model: mv.Model, Variant: mv.Variant,
		Problem: problems.ByNumber(3), Level: problems.LevelMedium, Temperature: 0.3, N: 25}
	if a, b := serial.Run(q), parallel.Run(q); a != b {
		t.Errorf("cell stats diverge: serial %+v parallel %+v", a, b)
	}
}

// TestSamplePrefixProperty checks that the hashed per-sample streams give
// n-sweeps a common prefix: sample i of an n=25 query is the same draw as
// sample i of the n=5 query at the same coordinates.
func TestSamplePrefixProperty(t *testing.T) {
	f := model.NewFamily(model.Config{Seed: 17, CorpusFiles: 60, VocabSize: 300})
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
	f := model.NewFamily(model.Config{Seed: 23, CorpusFiles: 60, VocabSize: 300})
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
		want[gi] = r.Run(q)
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
				if got := r.Run(q); got != want[gi] {
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
// how much work the pool still performed.
type blockingBackend struct {
	release chan struct{}
	calls   atomic.Int64
}

func (b *blockingBackend) Complete(gen.Key, *problems.Problem, problems.Level, float64, int, int64) (gen.Sample, bool) {
	b.calls.Add(1)
	<-b.release
	return gen.Sample{Completion: "bogus\n", Latency: 1}, true
}
func (b *blockingBackend) Variants() []gen.Key { return nil }
func (b *blockingBackend) Describe() string    { return "test: blocking backend" }

// TestEvaluateBatchCtxCancelStopsPool pins the shutdown contract a
// supervising coordinator (and vgen-eval's SIGINT handler) relies on:
// canceling the context stops the feeder, drains the worker pool without
// leaking goroutines, and returns ctx's error — with only the handful of
// items already in flight or buffered ever reaching the backend.
func TestEvaluateBatchCtxCancelStopsPool(t *testing.T) {
	b := &blockingBackend{release: make(chan struct{})}
	r := NewRunner(b, 1)
	const w = 4
	r.Workers = w
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
	close(b.release) // let the in-flight completions finish
	<-done

	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned (%v, %v), want (nil, context.Canceled)", out, err)
	}
	// At most the w in-flight items plus the w buffered in the channel may
	// still run; anything near the full batch means cancellation leaked.
	if got := b.calls.Load(); got > 3*w {
		t.Errorf("pool ran %d of %d items after cancellation", got, items)
	}
}

// TestEvaluateBatchCtxSerialPreCanceled: the serial path (Workers=1) must
// honor an already-canceled context before touching the backend at all.
func TestEvaluateBatchCtxSerialPreCanceled(t *testing.T) {
	b := &blockingBackend{release: make(chan struct{})}
	close(b.release)
	r := NewRunner(b, 1)
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := r.EvaluateBatchCtx(ctx, []Query{{
		Model: model.CodeGen2B, Variant: model.FineTuned,
		Problem: problems.ByNumber(2), Level: problems.LevelLow, Temperature: 0.1, N: 5,
	}})
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch returned (%v, %v)", out, err)
	}
	if got := b.calls.Load(); got != 0 {
		t.Errorf("serial path ran %d items under a pre-canceled context", got)
	}
}

// TestSingleParsePerEvaluation pins the parse economics of the shared
// pipeline: a candidate source unseen by the process-wide design cache
// parses exactly one text (the candidate — the testbench AST is cached
// separately), and a repeat of a cached candidate parses nothing at all.
// EvaluateUnshared keeps the legacy one-parse-per-call contract.
func TestSingleParsePerEvaluation(t *testing.T) {
	p := problems.ByNumber(6)
	Evaluate(p, problems.LevelLow, p.RefBody) // warm the design caches
	// re-warm the testbench AST (bounded tier; earlier tests churn it)
	if _, err := testbenchFor(p.Testbench).parsed(); err != nil {
		t.Fatal(err)
	}
	before := vlog.ParseCalls()
	o := Evaluate(p, problems.LevelLow, p.RefBody)
	if n := vlog.ParseCalls() - before; n != 0 {
		t.Errorf("repeat evaluation parsed %d texts, want 0 (design-cache hit)", n)
	}
	if !o.Compiles || !o.Passes {
		t.Fatalf("reference outcome = %+v", o)
	}

	// unseen compiles-but-fails candidate: exactly one parse
	before = vlog.ParseCalls()
	o = Evaluate(p, problems.LevelMedium, "  always @(posedge clk) q <= q; // single-parse near-miss\nendmodule\n")
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("near-miss evaluation parsed %d texts, want 1", n)
	}
	if !o.Compiles || o.Passes {
		t.Fatalf("near-miss outcome = %+v", o)
	}

	// unseen non-compiling candidate: one parse, then reject
	before = vlog.ParseCalls()
	o = Evaluate(p, problems.LevelLow, "  single-parse garbage tokens\n")
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("broken evaluation parsed %d texts, want 1", n)
	}
	if o.Compiles {
		t.Fatalf("broken outcome = %+v", o)
	}

	// the unshared baseline parses the candidate on every call
	before = vlog.ParseCalls()
	o = EvaluateUnshared(p, problems.LevelLow, p.RefBody)
	if n := vlog.ParseCalls() - before; n != 1 {
		t.Errorf("unshared evaluation parsed %d texts, want 1", n)
	}
	if !o.Compiles || !o.Passes {
		t.Fatalf("unshared reference outcome = %+v", o)
	}
}

// TestCompileVerdictWithoutTestbench pins the fallback semantics: when the
// testbench cannot be used, the Compiles verdict must still be derived
// from the already-parsed DUT source, never from a second full parse.
func TestCompileVerdictWithoutTestbench(t *testing.T) {
	// A copy of problem 6 with a corrupted bench exercises the path
	// directly; the testbench-text cache key keeps the corrupt AST from
	// leaking into real problem 6 evaluations despite the shared Number.
	base := problems.ByNumber(6)
	broken := *base
	broken.Testbench = "module tb; this does not parse"
	o := Evaluate(&broken, problems.LevelLow, base.RefBody)
	if !o.Compiles {
		t.Error("DUT that compiles must keep Compiles=true when the bench is unusable")
	}
	if o.Passes {
		t.Error("no simulation ran, Passes must be false")
	}
}
