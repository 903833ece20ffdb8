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

// sampleResult is one work item's outcome, written into a slot owned by
// its (query, sample) coordinates so reduction order is fixed. ok mirrors
// the backend's verdict: a slot the backend declined (no such model line,
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
	out, _, err := r.evaluateBatch(ctx, qs)
	return out, err
}

// evaluateBatch is EvaluateBatchCtx that also returns the cells this call
// degraded. A caller that must exclude failed cells reads them here, not
// from the Runner, so another call on the same Runner can never change
// which of its own cells it drops.
func (r *Runner) evaluateBatch(ctx context.Context, qs []Query) ([]CellStats, []CellFailure, error) {
	// Queries that differ only in N draw the same samples (querySeed leaves
	// N out), so they share one draw: its slots are sized to the largest N
	// among them, and each query's results are a prefix of its draw's.
	draws, drawOf := distinctDraws(qs)
	keys := make([]gen.Key, len(draws))
	bases := make([]int64, len(draws))
	slots := make([][]sampleResult, len(draws))
	var lines []gen.Key
	var probs []*problems.Problem
	total := 0
	for _, d := range draws {
		total += d.N
	}
	// Pre-sized item list: this path runs once per sweep batch, and its
	// allocations are the warm-cache sweep's main garbage. The per-draw
	// result slices stay separate allocations on purpose — workers write
	// neighbouring draws' slots concurrently, and one flat backing
	// array would put them on shared cache lines.
	items := make([]workItem, 0, total)
	for di, d := range draws {
		keys[di] = gen.Key{Model: string(d.Model), Variant: d.Variant.String()}
		if !slices.Contains(lines, keys[di]) {
			lines = append(lines, keys[di])
		}
		if !slices.Contains(probs, d.Problem) {
			probs = append(probs, d.Problem)
		}
		bases[di] = r.querySeed(d)
		slots[di] = make([]sampleResult, d.N)
		for si := 0; si < d.N; si++ {
			items = append(items, workItem{qi: di, si: si})
		}
	}

	tasks := r.Backend.Prepare(lines, probs)
	if bb, ok := r.Backend.(gen.BatchBackend); ok {
		r.runBatched(ctx, bb, tasks, draws, keys, bases, slots, items)
	} else {
		r.runSingles(ctx, tasks, draws, keys, bases, slots, items)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	results := make([][]sampleResult, len(qs))
	for qi, q := range qs {
		results[qi] = slots[drawOf[qi]][:q.N]
	}

	// Deterministic reduction: per-query, in sample-index order, through
	// the same Add the cross-process shard merge uses. A cell with any
	// produced-failure slot degrades whole (lowest failed sample index
	// names the error, so the failure list is deterministic too) — its
	// stats zero out and the failure is returned with them (and listed in
	// Failures), which is what lets a plan run record the cell as
	// explicitly missing.
	out := make([]CellStats, len(qs))
	var fails []CellFailure
	for qi := range qs {
		var cellErr error
		for _, sr := range results[qi] {
			if sr.err != nil {
				cellErr = sr.err
				break
			}
		}
		if cellErr != nil {
			fails = append(fails, CellFailure{Coord: qs[qi].Coord(), Err: cellErr})
			continue
		}
		for _, sr := range results[qi] {
			if sr.ok {
				out[qi].Add(sr.stats())
			}
		}
	}
	r.failMu.Lock()
	if r.failSeen == nil {
		r.failSeen = map[Coord]bool{}
	}
	for _, f := range fails {
		if !r.failSeen[f.Coord] {
			r.failSeen[f.Coord] = true
			r.allFailures = append(r.allFailures, f)
		}
	}
	r.failMu.Unlock()
	return out, fails, nil
}

// distinctDraws returns the batch's distinct draws, in first-appearance
// order, and the index of each query's draw. A draw is a query with its N
// left out; its N is the largest among the queries that share it.
func distinctDraws(qs []Query) (draws []Query, drawOf []int) {
	drawOf = make([]int, len(qs))
	index := make(map[Query]int, len(qs))
	for qi, q := range qs {
		id := q
		id.N = 0
		di, ok := index[id]
		if !ok {
			di = len(draws)
			index[id] = di
			draws = append(draws, q)
		}
		draws[di].N = max(draws[di].N, q.N)
		drawOf[qi] = di
	}
	return draws, drawOf
}

// workItem addresses one (draw, sample) work unit of a batch: qi indexes
// the distinct draws the runners are handed.
type workItem struct{ qi, si int }

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

// claim runs do(i) for every index in [0, n) on up to w workers, the
// caller's goroutine among them, each claiming the next index from one
// shared counter (claimLoop), and waits for all of them.
func claim(ctx context.Context, w, n int, do func(int)) {
	var next atomic.Int64
	w = max(min(w, n), 1)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			claimLoop(ctx, &next, n, do)
		}()
	}
	claimLoop(ctx, &next, n, do)
	wg.Wait()
}

// runSingles is the one-call-per-sample path: the backend's prepare tasks
// and then every work item are claimed through one shared index by the
// pool's workers, each item its own Backend.Complete call. One worker is
// the serial case.
func (r *Runner) runSingles(ctx context.Context, tasks []func(), qs []Query, keys []gen.Key, bases []int64, results [][]sampleResult, items []workItem) {
	do := func(i int) {
		if i < len(tasks) {
			tasks[i]()
			return
		}
		it := items[i-len(tasks)]
		q := qs[it.qi]
		s, ok := r.Backend.Complete(keys[it.qi], q.Problem, q.Level, q.Temperature, it.si, bases[it.qi])
		if !ok {
			return // slot stays zero with ok=false -> excluded from stats
		}
		o := r.evaluate(q.Problem, q.Level, s.Completion)
		results[it.qi][it.si] = sampleResult{outcome: o, latency: s.Latency, ok: true}
	}
	claim(ctx, r.workers(), len(tasks)+len(items), do)
}

// defaultBatchSize is the CompleteBatch width when Runner.BatchSize is
// unset — big enough to amortize per-call transport overhead across the
// sweep fan-out, small enough that a lost batch degrades few cells.
const defaultBatchSize = 16

// runBatched is the batch fast path: the work items are cut into fixed
// batches of BatchSize consecutive items, and the backend's prepare tasks
// and then those batches are claimed through one shared index by the
// pool's workers, each batch one CompleteBatch call. Outcome evaluation
// stays per sample; slot ownership and the fixed-order reduction are
// untouched, so results are byte-identical to the single-call path at
// any batch size.
func (r *Runner) runBatched(ctx context.Context, bb gen.BatchBackend, tasks []func(), qs []Query, keys []gen.Key, bases []int64, results [][]sampleResult, items []workItem) {
	bs := r.BatchSize
	if bs <= 0 {
		bs = defaultBatchSize
	}
	run := func(bt []workItem) {
		reqs := make([]gen.Request, len(bt))
		for i, it := range bt {
			q := qs[it.qi]
			reqs[i] = gen.Request{
				Key: keys[it.qi], Problem: q.Problem, Level: q.Level,
				Temperature: q.Temperature, SampleIdx: it.si, BaseSeed: bases[it.qi],
			}
		}
		res := bb.CompleteBatch(ctx, reqs)
		if len(res) != len(reqs) {
			err := fmt.Errorf("eval: backend %s returned %d results for a %d-request batch", r.Backend.Describe(), len(res), len(reqs))
			for _, it := range bt {
				results[it.qi][it.si] = sampleResult{err: err}
			}
			return
		}
		for i, it := range bt {
			q := qs[it.qi]
			switch {
			case res[i].Err != nil:
				results[it.qi][it.si] = sampleResult{err: res[i].Err}
			case res[i].OK:
				o := r.evaluate(q.Problem, q.Level, res[i].Sample.Completion)
				results[it.qi][it.si] = sampleResult{outcome: o, latency: res[i].Sample.Latency, ok: true}
			}
		}
	}
	do := func(i int) {
		if i < len(tasks) {
			tasks[i]()
			return
		}
		b := i - len(tasks)
		run(items[b*bs : min((b+1)*bs, len(items))])
	}
	claim(ctx, r.workers(), len(tasks)+(len(items)+bs-1)/bs, do)
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
