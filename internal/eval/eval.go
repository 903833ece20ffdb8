// Package eval implements the paper's evaluation sweeps (Sections IV-V):
// it samples completions from a generation backend, has each one judged
// by internal/verdict (truncate at endmodule, compile, simulate against
// the problem's test bench), and aggregates the verdicts into
// Pass@(scenario·n) values with best-temperature selection.
//
// The sweep is a parallel engine: Runner fans (problem, level,
// temperature, sample-index) work items across a worker pool, with
// per-sample hashed RNG streams so parallel and serial runs produce
// byte-identical tables. See DESIGN.md, "The parallel evaluation engine".
package eval

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/verdict"
)

// The forwarders below keep the verdict package's API under the names
// the benchmark module (bench/) compiles against; code in this module
// calls internal/verdict directly.

// Outcome is verdict.Outcome, kept for bench/.
type Outcome = verdict.Outcome

// SharedCacheStats is verdict.SharedCacheStats, kept for bench/.
type SharedCacheStats = verdict.SharedCacheStats

// Truncate is verdict.Truncate, kept for bench/.
func Truncate(completion string) string { return verdict.Truncate(completion) }

// Evaluate is verdict.Evaluate, kept for bench/.
func Evaluate(p *problems.Problem, level problems.Level, completion string) Outcome {
	return verdict.Evaluate(p, level, completion)
}

// EvaluateUnshared is verdict.EvaluateUnshared, kept for bench/.
func EvaluateUnshared(p *problems.Problem, level problems.Level, completion string) Outcome {
	return verdict.EvaluateUnshared(p, level, completion)
}

// SetPlanCacheBytes is verdict.SetPlanCacheBytes, kept for bench/.
func SetPlanCacheBytes(n int64) { verdict.SetPlanCacheBytes(n) }

// SharedStats is verdict.SharedStats, kept for bench/.
func SharedStats() SharedCacheStats { return verdict.SharedStats() }

// FNV-1a constants for query-seed hashing.
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

// Runner executes queries against a generation backend. It caches
// nothing itself: backends repeat completions heavily across cells, and
// a repeat of a candidate that parses is answered by the process-wide
// verdict memo behind verdict.Evaluate. The backend is any gen.Backend —
// the simulated family, a replayed recording, a mutant generator, or a
// third-party source — selected by the layer above. The zero value with
// Backend and Seed set is ready to use; NewRunner builds exactly that.
type Runner struct {
	Backend gen.Backend
	Seed    int64

	// Workers sets the evaluation pool width: 1 means serial, 0 (or
	// negative) means GOMAXPROCS. Results are byte-identical at every
	// width; see DESIGN.md, "Determinism under parallelism".
	Workers int

	// BatchSize is how many consecutive work items go into one
	// CompleteBatch call when Backend implements gen.BatchBackend; 0 means
	// 16. Batch composition never affects results: samples are pure
	// functions of their coordinates, so any size produces byte-identical
	// CellStats.
	BatchSize int

	// UnsharedPlans evaluates the sweep's samples through
	// verdict.EvaluateUnshared — fresh parse, full elaboration, and a
	// fresh simulation per sample — instead of the shared tiers and the
	// verdict memo. The variant bank verifies its pools through the
	// shared tiers either way. Output is byte-identical; the unshared
	// path exists as the differential baseline and the benchmarks'
	// ablation, the role sim.Options.Interpret and model.Config.MapSampler
	// play in their layers. No command sets it.
	UnsharedPlans bool //vgencheck:oracle differential baseline the shared tiers are checked against (TestSharedSweepMatchesUnsharedAtAnyWidth)

	failMu      sync.Mutex
	allFailures []CellFailure // accumulated across calls, deduped by coord
	failSeen    map[Coord]bool
}

// NewRunner wraps a generation backend for evaluation.
func NewRunner(b gen.Backend, seed int64) *Runner {
	return &Runner{Backend: b, Seed: seed}
}

// NewFamilyRunner wraps a simulated model family — the common case — for
// evaluation.
func NewFamilyRunner(f *model.Family, seed int64) *Runner {
	return NewRunner(gen.NewFamilyBackend(f), seed)
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (r *Runner) evaluate(p *problems.Problem, level problems.Level, completion string) verdict.Outcome {
	if r.UnsharedPlans {
		return verdict.EvaluateUnshared(p, level, completion)
	}
	return verdict.Evaluate(p, level, completion)
}

// cacheStats is the type of Runner.CacheStats: the one counter
// bench/trace.go reads.
type cacheStats struct{ Entries int }

// CacheStats reads zero: a Runner caches nothing, and the verdict memo
// reports through verdict.SharedStats. It stays for bench/trace.go,
// which reads it, until the next change to the benchmark drops it.
func (r *Runner) CacheStats() cacheStats { return cacheStats{} }

// Query identifies one evaluation cell sample request.
type Query struct {
	Model       model.ID
	Variant     model.Variant
	Problem     *problems.Problem
	Level       problems.Level
	Temperature float64
	N           int
}

// querySeed hashes the query coordinates (not N) into the base seed that
// sample indices are derived from. Excluding N gives the streams a prefix
// property: sample i is the same draw in an n=1, n=10, or n=25 sweep, so
// evaluateBatch takes it once for every cell of a batch that needs it.
//
// The truncating int64(t*1000) below is load-bearing and deliberately NOT
// gen.TempMilli (which rounds): "fixing" it would change every seed
// stream and silently invalidate all existing recordings and shard
// results. Seed correctness never depends on the two quantizers agreeing
// — only on the temperature float itself being identical, which
// Plan.Add's round-trip check guarantees for serialized coordinates.
func (r *Runner) querySeed(q Query) int64 {
	h := fnvUint(fnvOffset, uint64(r.Seed))
	h = fnvString(h, string(q.Model))
	h = fnvUint(h, uint64(q.Variant))
	h = fnvUint(h, uint64(q.Problem.Number))
	h = fnvUint(h, uint64(q.Level))
	h = fnvUint(h, uint64(int64(q.Temperature*1000)))
	return int64(h)
}

// CellStats aggregate the outcomes of one query.
type CellStats struct {
	Samples  int
	Compiled int
	Passed   int
	SumLat   float64
}

// CompileRate is the fraction of completions that compiled.
func (c CellStats) CompileRate() float64 {
	if c.Samples == 0 {
		return 0
	}
	return float64(c.Compiled) / float64(c.Samples)
}

// PassRate is the fraction of completions that passed functional tests —
// the Pass@(scenario·n) contribution of this cell.
func (c CellStats) PassRate() float64 {
	if c.Samples == 0 {
		return 0
	}
	return float64(c.Passed) / float64(c.Samples)
}

// MeanLatency is the mean simulated inference time per query.
func (c CellStats) MeanLatency() float64 {
	if c.Samples == 0 {
		return 0
	}
	return c.SumLat / float64(c.Samples)
}

// Add pools another cell into this one.
func (c *CellStats) Add(o CellStats) {
	c.Samples += o.Samples
	c.Compiled += o.Compiled
	c.Passed += o.Passed
	c.SumLat += o.SumLat
}

// sampleResult is one sample's outcome, written into the slot its (draw,
// sample) coordinates own so reduction order is fixed. ok mirrors the
// backend's verdict: a slot the backend declined (no such model line,
// sample missing from a recording) stays out of the stats entirely. err
// is a produced failure (a remote transport that exhausted its retries):
// unlike a decline, it poisons the whole cell — scoring a cell from fewer
// samples than planned would be a silent gap, so the reduction degrades
// it to an explicit CellFailure instead.
type sampleResult struct {
	outcome verdict.Outcome
	latency float64
	ok      bool
	err     error
}

// stats is the sample's one-observation CellStats contribution. Reducing
// through it makes CellStats.Add the single merge path for every
// aggregation level: sample into cell here, cell into pooled scenario in
// the sweeps, and shard into sweep in the cross-process merge.
func (sr sampleResult) stats() CellStats {
	st := CellStats{Samples: 1, SumLat: sr.latency}
	if sr.outcome.Compiles {
		st.Compiled = 1
	}
	if sr.outcome.Passes {
		st.Passed = 1
	}
	return st
}

// EvaluateBatch executes a batch of queries, fanning every (query,
// sample-index) work item across the worker pool; queries that differ
// only in N take each sample once, from shared slots. Per-sample hashed
// RNGs plus fixed-order reduction make the returned stats byte-identical
// to a serial run, including float latency sums.
func (r *Runner) EvaluateBatch(qs []Query) []CellStats {
	out, _ := r.EvaluateBatchCtx(context.Background(), qs)
	return out // a Background context never cancels, so out is never nil
}

// EvaluateBatchCtx is EvaluateBatch under a context: cancellation stops
// the pool promptly at work-item granularity — every worker checks ctx
// before claiming its next item, so none is started after cancellation is
// seen, every worker goroutine exits, and the call returns ctx.Err() with
// nil stats rather than a partially reduced batch. This is what lets a
// coordinator shutdown (or SIGINT) reap an in-flight shard without
// leaking its pool.
//
// Before taking samples, the workers drain the backend's Prepare tasks
// for the batch's distinct keys and problems (in plan order) through the
// same claim index, so set-up such as training a model runs spread across
// the pool instead of lazily inside one worker's Complete while the
// others wait on it.
func (r *Runner) EvaluateBatchCtx(ctx context.Context, qs []Query) ([]CellStats, error) {
	out := make([]CellStats, len(qs))
	if err := r.evaluateEach(ctx, qs, func(i int, st CellStats, _ bool) { out[i] = st }); err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateEach evaluates qs on the worker pool and hands each query's
// stats to each the moment its draw's last sample lands, from the worker
// that filled it: each(i, st, ok) runs once per query, concurrently and
// in any order, with ok false and st zero for a degraded cell. Cells of
// draws not finished when ctx is canceled are never handed out.
//
// Reduction is per query, in sample-index order, through the same Add the
// cross-process shard merge uses. A query with any produced-failure slot
// in its prefix degrades whole (the lowest failed sample index names the
// error), and once the pool has drained without cancellation its failure
// is listed in Failures, in query order, which is what lets a plan run
// record the cell as explicitly missing.
func (r *Runner) evaluateEach(ctx context.Context, qs []Query, each func(i int, st CellStats, ok bool)) error {
	b := r.newBatch(qs, each)
	for d := range b.draws {
		if b.draws[d].n == 0 {
			b.reduce(d) // no sample will ever complete it
		}
	}
	var lines []gen.Key
	var probs []*problems.Problem
	for _, d := range b.draws {
		if k := b.key(d); !slices.Contains(lines, k) {
			lines = append(lines, k)
		}
		if p := b.qs[d.head].Problem; !slices.Contains(probs, p) {
			probs = append(probs, p)
		}
	}
	tasks := r.Backend.Prepare(lines, probs)
	if bb, ok := r.Backend.(gen.BatchBackend); ok {
		r.runBatched(ctx, bb, tasks, b)
	} else {
		r.runSingles(ctx, tasks, b)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	slices.SortFunc(b.fails, func(x, y queryFailure) int { return x.qi - y.qi })
	r.failMu.Lock()
	if r.failSeen == nil {
		r.failSeen = map[Coord]bool{}
	}
	for _, f := range b.fails {
		if c := qs[f.qi].Coord(); !r.failSeen[c] {
			r.failSeen[c] = true
			r.allFailures = append(r.allFailures, CellFailure{Coord: c, Err: f.err})
		}
	}
	r.failMu.Unlock()
	return nil
}

// batch is one evaluateEach call's work. Queries that differ only in N
// draw the same samples (querySeed leaves N out), so they share one draw:
// its samples number the largest N among them, and each query's results
// are a prefix of its draw's. The samples of all draws, in draw order,
// are the batch's sample order, which the workers claim front to back.
type batch struct {
	qs    []Query
	each  func(i int, st CellStats, ok bool)
	draws []draw
	next  []int32 // next[qi]: the next query of qi's draw, or -1
	total int     // samples of all draws

	// left counts each draw's samples not yet filled, and slots holds
	// each draw's results from its first filled sample until it is
	// reduced; both are indexed like draws.
	left  []atomic.Int32
	slots []atomic.Pointer[[]sampleResult]

	failMu sync.Mutex
	fails  []queryFailure
}

// draw is one distinct draw of a batch. Each of its queries carries its
// coordinates but N.
type draw struct {
	head int32 // first query of the draw's list, which next links
	n    int32 // samples: the largest N among its queries
	base int64 // querySeed of the draw
}

// queryFailure is a degraded query of a batch, before it is listed in
// Runner.Failures.
type queryFailure struct {
	qi  int
	err error
}

// newBatch finds qs's distinct draws, in first-appearance order.
func (r *Runner) newBatch(qs []Query, each func(int, CellStats, bool)) *batch {
	b := &batch{qs: qs, each: each, next: make([]int32, len(qs))}
	index := make(map[Query]int32, len(qs))
	for qi, q := range qs {
		id := q
		id.N = 0
		di, ok := index[id]
		if !ok {
			di = int32(len(b.draws))
			index[id] = di
			b.draws = append(b.draws, draw{head: -1, base: r.querySeed(q)})
		}
		d := &b.draws[di]
		b.next[qi], d.head = d.head, int32(qi)
		d.n = max(d.n, int32(q.N))
	}
	b.left = make([]atomic.Int32, len(b.draws))
	for d := range b.draws {
		b.left[d].Store(b.draws[d].n)
		b.total += int(b.draws[d].n)
	}
	b.slots = make([]atomic.Pointer[[]sampleResult], len(b.draws))
	return b
}

// key is the generation line a draw samples.
func (b *batch) key(d draw) gen.Key {
	q := &b.qs[d.head]
	return gen.Key{Model: string(q.Model), Variant: q.Variant.String()}
}

// cursor is one worker's place in the batch's sample order: the draw it
// is on, where that draw's samples start, and how many of them the worker
// has filled without yet subtracting them from the draw's count. Workers
// claim neighbouring samples of one draw, so counting down once per draw
// and worker, not once per sample, keeps them off each other's cache line.
type cursor struct{ d, start, filled int }

// seek moves c to the draw that holds sample g, which lies at or after
// c's draw (a worker's claims only ascend), settling the count of every
// draw it leaves, and returns g's index within its draw.
func (b *batch) seek(c *cursor, g int) int {
	for g >= c.start+int(b.draws[c.d].n) {
		b.settle(c)
		c.start += int(b.draws[c.d].n)
		c.d++
	}
	return g - c.start
}

// settle subtracts the samples c filled in its draw from the draw's count;
// the worker that brings it to zero reduces the draw.
func (b *batch) settle(c *cursor) {
	if c.filled == 0 {
		return
	}
	if b.left[c.d].Add(int32(-c.filled)) == 0 {
		b.reduce(c.d)
	}
	c.filled = 0
}

// fill records sample si of draw d, taking the draw's slots when it is
// the first to land.
func (b *batch) fill(d, si int, sr sampleResult) {
	p := b.slots[d].Load()
	if p == nil {
		p = takeSlots(int(b.draws[d].n))
		if !b.slots[d].CompareAndSwap(nil, p) {
			slotPool.Put(p)
			p = b.slots[d].Load()
		}
	}
	(*p)[si] = sr
}

// slotPool recycles the slots of reduced draws. Only the draws in flight
// hold slots, so a sweep reuses a handful of them instead of allocating
// one per draw, which in a cold paper sweep was 1.8 MB of the run's
// ~25 MB of garbage.
var slotPool sync.Pool

// takeSlots returns n zeroed slots.
func takeSlots(n int) *[]sampleResult {
	if p, _ := slotPool.Get().(*[]sampleResult); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		clear(*p)
		return p
	}
	s := make([]sampleResult, n)
	return &s
}

// reduce folds each query of the finished draw d over its prefix of the
// draw's slots, hands it out, and returns the slots to slotPool. A draw
// whose every sample was declined never took any: each of its queries is
// zero.
func (b *batch) reduce(d int) {
	var res []sampleResult
	if p := b.slots[d].Swap(nil); p != nil {
		res = *p
		defer slotPool.Put(p)
	}
	for qi := b.draws[d].head; qi >= 0; qi = b.next[qi] {
		prefix := res[:min(len(res), b.qs[qi].N)]
		var st CellStats
		var err error
		for _, sr := range prefix {
			if sr.err != nil {
				err = sr.err
				break
			}
		}
		if err != nil {
			b.failMu.Lock()
			b.fails = append(b.fails, queryFailure{qi: int(qi), err: err})
			b.failMu.Unlock()
			b.each(int(qi), CellStats{}, false)
			continue
		}
		for _, sr := range prefix {
			if sr.ok {
				st.Add(sr.stats())
			}
		}
		b.each(int(qi), st, true)
	}
}

// claimLoop runs do(i) for every index in [0, n) it claims from next,
// until the indices run out or ctx is canceled. ctx is checked before
// each claim, so once cancellation is seen no worker starts another item.
func claimLoop(ctx context.Context, next *atomic.Int64, n int, do func(int)) {
	for ctx.Err() == nil {
		i := int(next.Add(1) - 1)
		if i >= n {
			return
		}
		do(i)
	}
}

// claim runs w workers, the caller's goroutine among them, and waits for
// all of them. Each worker gets its own do and done from work, runs do(i)
// for every index in [0, n) it claims from one shared counter
// (claimLoop), and then calls done.
func claim(ctx context.Context, w, n int, work func() (do func(int), done func())) {
	var next atomic.Int64
	w = max(min(w, n), 1)
	run := func() {
		do, done := work()
		defer done()
		claimLoop(ctx, &next, n, do)
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// runSingles is the one-call-per-sample path: the backend's prepare tasks
// and then every sample are claimed through one shared index by the
// pool's workers, each sample its own Backend.Complete call. One worker
// is the serial case.
func (r *Runner) runSingles(ctx context.Context, tasks []func(), b *batch) {
	claim(ctx, r.workers(), len(tasks)+b.total, func() (func(int), func()) {
		var c cursor
		do := func(i int) {
			if i < len(tasks) {
				tasks[i]()
				return
			}
			si := b.seek(&c, i-len(tasks))
			d := b.draws[c.d]
			q := &b.qs[d.head]
			if s, ok := r.Backend.Complete(b.key(d), q.Problem, q.Level, q.Temperature, si, d.base); ok {
				o := r.evaluate(q.Problem, q.Level, s.Completion)
				b.fill(c.d, si, sampleResult{outcome: o, latency: s.Latency, ok: true})
			} // a declined slot stays zero with ok=false -> excluded from stats
			c.filled++
		}
		return do, func() { b.settle(&c) }
	})
}

// defaultBatchSize is the CompleteBatch width when Runner.BatchSize is
// unset — big enough to amortize per-call transport overhead across the
// sweep fan-out, small enough that a lost batch degrades few cells.
const defaultBatchSize = 16

// runBatched is the batch fast path: the sample order is cut into fixed
// batches of BatchSize consecutive samples, and the backend's prepare
// tasks and then those batches are claimed through one shared index by
// the pool's workers, each batch one CompleteBatch call. Outcome
// evaluation stays per sample, and a sample lands in the same slot and is
// counted down the same way as on the single-call path, so results are
// byte-identical to it at any batch size.
func (r *Runner) runBatched(ctx context.Context, bb gen.BatchBackend, tasks []func(), b *batch) {
	bs := r.BatchSize
	if bs <= 0 {
		bs = defaultBatchSize
	}
	claim(ctx, r.workers(), len(tasks)+(b.total+bs-1)/bs, func() (func(int), func()) {
		var c cursor
		do := func(i int) {
			if i < len(tasks) {
				tasks[i]()
				return
			}
			lo := (i - len(tasks)) * bs
			hi := min(lo+bs, b.total)
			reqs := make([]gen.Request, 0, hi-lo)
			look := cursor{d: c.d, start: c.start} // nothing filled: seeks settle nothing
			for g := lo; g < hi; g++ {
				si := b.seek(&look, g)
				d := b.draws[look.d]
				q := &b.qs[d.head]
				reqs = append(reqs, gen.Request{
					Key: b.key(d), Problem: q.Problem, Level: q.Level,
					Temperature: q.Temperature, SampleIdx: si, BaseSeed: d.base,
				})
			}
			res := bb.CompleteBatch(ctx, reqs)
			var lost error
			if len(res) != len(reqs) {
				lost = fmt.Errorf("eval: backend %s returned %d results for a %d-request batch", r.Backend.Describe(), len(res), len(reqs))
			}
			for j, rq := range reqs {
				b.seek(&c, lo+j)
				switch {
				case lost != nil:
					b.fill(c.d, rq.SampleIdx, sampleResult{err: lost})
				case res[j].Err != nil:
					b.fill(c.d, rq.SampleIdx, sampleResult{err: res[j].Err})
				case res[j].OK:
					o := r.evaluate(rq.Problem, rq.Level, res[j].Sample.Completion)
					b.fill(c.d, rq.SampleIdx, sampleResult{outcome: o, latency: res[j].Sample.Latency, ok: true})
				}
				c.filled++
			}
		}
		return do, func() { b.settle(&c) }
	})
}

// CellFailure is one planned cell whose samples could not be produced —
// a batch backend reported an error (remote transport out of retries,
// sweep budget exhausted) for at least one of its samples. The cell's
// stats are zeroed and callers decide the degradation: plan runs record
// it as missing (the partial-result path), direct renders fail loudly
// after rendering.
type CellFailure struct {
	Coord Coord
	Err   error
}

// Failures reports every cell any EvaluateBatch* call on this runner has
// degraded, deduplicated by coordinate, in first-failure order. A cell
// that failed in one render and succeeded in a later one stays listed:
// the earlier artifact really did print zeros for it, and the report's
// job is to make that impossible to miss. Empty means every requested
// cell was served every time.
func (r *Runner) Failures() []CellFailure {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return append([]CellFailure(nil), r.allFailures...)
}

// Temperatures is the paper's sweep set.
var Temperatures = []float64{0.1, 0.3, 0.5, 0.7, 1.0}

// CompletionCounts is the paper's n sweep set.
var CompletionCounts = []int{1, 10, 25}

// ModelVariant names one evaluated line of Tables III/IV.
type ModelVariant struct {
	Model   model.ID
	Variant model.Variant
}

// EvaluatedVariants lists the 11 rows of Tables III/IV in paper order.
func EvaluatedVariants() []ModelVariant {
	var out []ModelVariant
	for _, id := range model.IDs {
		spec := model.Lookup(id)
		out = append(out, ModelVariant{Model: id, Variant: model.Pretrained})
		if spec.HasFineTuned {
			out = append(out, ModelVariant{Model: id, Variant: model.FineTuned})
		}
	}
	return out
}
