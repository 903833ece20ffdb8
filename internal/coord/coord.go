// Package coord is the fault-tolerant sweep coordinator: it drives a
// distributed evaluation sweep (internal/wire shard plans + results) to
// completion through worker supervision, so a crashed worker, a hung
// process, or a truncated result file costs one retry instead of a
// silently wrong table or a manual re-run.
//
// The supervisor owns a per-shard retry state machine:
//
//	        ┌──────────────────────── retry (backoff+jitter) ───────┐
//	        ▼                                                       │
//	pending ──► running ──► validate ──► done            invalid/err/timeout
//	   │            │                                               │
//	resume       steal (speculative duplicate                       │
//	(durable      of a straggler; first valid                 attempts ≥ budget
//	 result       result wins)                                      │
//	 on disk)                                                       ▼
//	                                                             failed
//
// Design points, in the order they matter:
//
//   - A shard is done only when its result file decode-validates (full
//     wire.ReadResults pass, sweep identity match, exact planned cell
//     set) and has been atomically renamed into place. Worker exit
//     status is never trusted; a worker that "succeeded" but left a
//     truncated or corrupt file is retried exactly like a crash.
//   - Every failure re-queues the shard with exponential backoff, capped
//     and deterministically jittered, under a per-shard attempt budget.
//     Timeouts reap hangs; each attempt runs under its own context.
//   - Worker slots are health-checked: consecutive failures quarantine a
//     slot (its shards get reassigned to healthy slots), but never the
//     last one — a degraded coordinator still makes progress.
//   - Near the end of a run, idle slots steal stragglers: a shard whose
//     only attempt has run past StealAfter gets a speculative duplicate,
//     and the first validated result wins (determinism makes both
//     byte-identical, so either may).
//   - Results are durable: a killed coordinator restarted on the same
//     directory resumes from the validated shard files on disk and
//     recomputes only what is missing.
//   - With retries exhausted the coordinator degrades gracefully: it
//     merges every shard that did complete and reports the missing
//     shards and cells explicitly (Result.Report), never a silent gap.
//
// Faults are injectable (FaultPlan) at exactly the supervision boundary,
// so every recovery path above is deterministically testable.
package coord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/wire"
)

// Config shapes one supervised sweep.
type Config struct {
	// Experiments names the cell-based artifacts to sweep ("all" expands
	// to every one); empty means "all".
	Experiments []string
	// Shards is the partition count of the sweep.
	Shards int
	// Workers is the number of concurrent worker slots; 0 means 2.
	Workers int
	// Dir is the durable state directory: shard plans, validated shard
	// results, and in-progress attempt files all live here. Restarting a
	// coordinator on the same Dir resumes from the validated results.
	Dir string
	// Timeout bounds one attempt's wall clock; 0 means no timeout.
	Timeout time.Duration
	// MaxAttempts is the per-shard attempt budget (including speculative
	// duplicates); 0 means 3.
	MaxAttempts int
	// BackoffBase is the pre-jitter delay before the second attempt,
	// doubling per attempt up to BackoffCap; 0 means 100ms (cap: 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// StealAfter is the straggler age after which an idle slot may run a
	// speculative duplicate of a still-running shard; 0 disables
	// work-stealing.
	StealAfter time.Duration
	// UnhealthyAfter quarantines a worker slot after that many
	// consecutive failures (never the last healthy slot); 0 means 3.
	UnhealthyAfter int
	// Seed feeds the deterministic backoff jitter; use the sweep seed.
	Seed int64
	// Events, when non-nil, receives every supervision event
	// synchronously from the coordinator goroutine — the live progress
	// stream. The callback must not call back into the coordinator.
	Events func(Event)
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards <= 0 {
		return c, fmt.Errorf("coord: %d shards", c.Shards)
	}
	if c.Dir == "" {
		return c, errors.New("coord: no state directory")
	}
	if len(c.Experiments) == 0 {
		c.Experiments = []string{"all"}
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.BackoffCap < c.BackoffBase {
		c.BackoffCap = c.BackoffBase
	}
	if c.UnhealthyAfter <= 0 {
		c.UnhealthyAfter = 3
	}
	return c, nil
}

// EventKind names one supervision event.
type EventKind int

const (
	// EventPlanned: the shard's plan file is written and queued.
	EventPlanned EventKind = iota
	// EventResume: a durable validated result was adopted; no execution.
	EventResume
	// EventStart: an attempt was dispatched to a worker slot.
	EventStart
	// EventSteal: a speculative duplicate of a straggler was dispatched.
	EventSteal
	// EventDone: a validated result was renamed into place; shard done.
	EventDone
	// EventRetry: an attempt failed; the shard re-queues after Delay.
	EventRetry
	// EventGiveUp: the attempt budget is exhausted; shard failed.
	EventGiveUp
	// EventQuarantine: a slot hit UnhealthyAfter consecutive failures
	// and receives no further work.
	EventQuarantine
)

func (k EventKind) String() string {
	switch k {
	case EventPlanned:
		return "planned"
	case EventResume:
		return "resume"
	case EventStart:
		return "start"
	case EventSteal:
		return "steal"
	case EventDone:
		return "done"
	case EventRetry:
		return "retry"
	case EventGiveUp:
		return "give-up"
	case EventQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one entry of the live supervision stream.
type Event struct {
	Kind    EventKind
	Shard   int
	Attempt int
	Slot    int
	Delay   time.Duration // EventRetry: backoff before re-dispatch
	Err     string        // failure detail, where applicable
}

// ShardStatus summarizes one shard's supervision outcome.
type ShardStatus struct {
	Shard    int
	Attempts int
	Done     bool
	Resumed  bool   // adopted from a durable result, no execution
	Err      string // last failure, for diagnosing failed shards
}

// Result is the outcome of a supervised sweep: the merged stats of every
// completed shard, plus an explicit account of anything missing.
type Result struct {
	Set  *eval.ResultSet
	Meta wire.Meta
	// Shards holds one status per shard, by index.
	Shards []ShardStatus
	// FailedShards lists shards that exhausted their attempt budget,
	// ascending; empty means the sweep is complete.
	FailedShards []int
	// MissingCells lists the failed shards' planned cells in canonical
	// coordinate order — exactly what the merged Set does not cover.
	MissingCells []eval.Coord
	// StoreUsed reports whether the framework had a result store attached;
	// StoreAdopted counts cells served from it without execution (before
	// any shard was planned), StoreNew cells newly persisted by this run.
	StoreUsed    bool
	StoreAdopted int
	StoreNew     int
}

// Complete reports whether every shard finished.
func (r *Result) Complete() bool { return len(r.FailedShards) == 0 }

// Report renders the missing-shard/missing-cell account, deterministic
// and human-readable — the artifact a degraded run must surface instead
// of dying (or worse, staying silent).
func (r *Result) Report() string {
	var b strings.Builder
	if r.Complete() {
		fmt.Fprintf(&b, "coord: all %d shards complete (%d cells)\n", r.Meta.Shards, r.Set.Len())
		r.reportStore(&b)
		return b.String()
	}
	fmt.Fprintf(&b, "coord: PARTIAL result: %d of %d shard(s) failed after exhausting retries\n",
		len(r.FailedShards), r.Meta.Shards)
	for _, i := range r.FailedShards {
		st := r.Shards[i]
		fmt.Fprintf(&b, "  shard %d: %d attempt(s); last error: %s\n", i, st.Attempts, st.Err)
	}
	fmt.Fprintf(&b, "  %d cell(s) missing from the merge:\n", len(r.MissingCells))
	for i, c := range r.MissingCells {
		if i == 8 {
			fmt.Fprintf(&b, "    ... and %d more\n", len(r.MissingCells)-8)
			break
		}
		fmt.Fprintf(&b, "    %+v\n", c)
	}
	r.reportStore(&b)
	return b.String()
}

// reportStore appends the store traffic line — only when a store was
// attached, so store-less output stays byte-identical.
func (r *Result) reportStore(b *strings.Builder) {
	if r.StoreUsed {
		fmt.Fprintf(b, "coord: store: %d cell(s) adopted, %d new cell(s) persisted\n", r.StoreAdopted, r.StoreNew)
	}
}

type shardPhase int

const (
	statePending shardPhase = iota
	stateRunning
	stateDone
	stateFailed
)

type shardState struct {
	idx        int
	meta       wire.Meta
	coords     []eval.Coord
	planPath   string
	resultPath string

	state    shardPhase
	attempts int       // attempts started, including speculative ones
	inflight int       // attempts currently running
	eligible time.Time // pending: earliest next dispatch (backoff)
	started  time.Time // running: first in-flight attempt's start, for steal aging
	resumed  bool
	lastErr  string
	cancels  map[int]context.CancelFunc // in-flight attempt cancels, by attempt
}

type slotState struct {
	idx         int
	busy        bool
	fails       int // consecutive
	quarantined bool
}

type attemptDone struct {
	a   Attempt
	err error
}

type supervisor struct {
	cfg      Config
	fw       *core.Framework
	launcher Launcher
	adopted  *eval.ResultSet // store-resident cells, excluded from shard plans
	shards   []*shardState
	slots    []*slotState
	results  chan attemptDone
	inflight int
}

// Run drives one supervised sweep over fw's backend to completion. The
// framework plans the shards (and defines the sweep identity workers are
// validated against); the launcher executes attempts — in-process, as
// local subprocesses, or anything else that honors the contract. Run
// returns an error only for setup failures, cancellation, or a sweep
// with zero completed shards; exhausted retries degrade to a partial
// Result instead (check Result.Complete, render Result.Report).
func Run(ctx context.Context, fw *core.Framework, cfg Config, l Launcher) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if l == nil {
		return nil, errors.New("coord: nil launcher")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	// Adopt store-resident cells before planning: a warm store shrinks
	// every shard's plan (and an entirely warm sweep skips supervision
	// altogether). Without a store this is the identity transformation —
	// the remaining plan is the full plan — so shard partitions are
	// unchanged.
	remaining, err := fw.Harness.PlanFor(cfg.Experiments)
	if err != nil {
		return nil, err
	}
	adopted := eval.NewResultSet()
	if fw.Store != nil {
		if adopted, remaining, err = fw.Store.Split(fw.SweepIdentity(), remaining); err != nil {
			return nil, err
		}
	}
	s := &supervisor{cfg: cfg, fw: fw, launcher: l, adopted: adopted, results: make(chan attemptDone)}
	if remaining.Len() == 0 {
		// Everything resident: the result is assembled without dispatching
		// a single worker (the "warm sweep, zero backend calls" fast path).
		res := &Result{
			Set:  adopted,
			Meta: fw.ShardMeta(-1, cfg.Shards),
		}
		for i := 0; i < cfg.Shards; i++ {
			s.emit(Event{Kind: EventResume, Shard: i})
			res.Shards = append(res.Shards, ShardStatus{Shard: i, Done: true, Resumed: true})
		}
		if err := s.accountStore(res); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Sweep attempt debris from a previous coordinator life; validated
	// shard results are the only state that survives a restart.
	for _, pat := range []string{"*.attempt-*", "*.tmp-*"} {
		stale, _ := filepath.Glob(filepath.Join(cfg.Dir, pat))
		for _, f := range stale {
			os.Remove(f)
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		plan, err := remaining.Shard(i, cfg.Shards)
		if err != nil {
			return nil, err
		}
		meta := fw.ShardMeta(i, cfg.Shards)
		sh := &shardState{
			idx: i, meta: meta, coords: plan.Coords(),
			planPath:   filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d.plan.jsonl", i)),
			resultPath: filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d.jsonl", i)),
			cancels:    map[int]context.CancelFunc{},
		}
		if err := validateResultFile(sh.resultPath, sh.meta, sh.coords); err == nil {
			sh.state = stateDone
			sh.resumed = true
			s.emit(Event{Kind: EventResume, Shard: i})
		} else {
			os.Remove(sh.resultPath) // absent, stale, or damaged: recompute
			if err := writePlanFile(sh.planPath, sh.meta, sh.coords); err != nil {
				return nil, err
			}
			s.emit(Event{Kind: EventPlanned, Shard: i})
		}
		s.shards = append(s.shards, sh)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.slots = append(s.slots, &slotState{idx: i})
	}
	return s.run(ctx)
}

func (s *supervisor) emit(e Event) {
	if s.cfg.Events != nil {
		s.cfg.Events(e)
	}
}

func (s *supervisor) allTerminal() bool {
	for _, sh := range s.shards {
		if sh.state != stateDone && sh.state != stateFailed {
			return false
		}
	}
	return true
}

func (s *supervisor) freeHealthySlot() *slotState {
	for _, sl := range s.slots {
		if !sl.busy && !sl.quarantined {
			return sl
		}
	}
	return nil
}

func (s *supervisor) healthySlots() int {
	n := 0
	for _, sl := range s.slots {
		if !sl.quarantined {
			n++
		}
	}
	return n
}

func (s *supervisor) run(ctx context.Context) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			// Shutdown: reap every in-flight attempt and drain their
			// results so no launch goroutine leaks, then surface the
			// cancellation. Validated shard files stay durable for resume.
			s.cancelAll()
			for s.inflight > 0 {
				s.handle(<-s.results)
			}
			return nil, err
		}
		s.dispatch(ctx)
		if s.allTerminal() && s.inflight == 0 {
			break
		}
		var timer *time.Timer
		var timerC <-chan time.Time
		if wake, ok := s.nextWake(); ok {
			d := time.Until(wake)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case r := <-s.results:
			s.handle(r)
		case <-timerC:
			// re-dispatch: a backoff expired or a straggler aged into
			// steal eligibility
		case <-ctx.Done():
		}
		if timer != nil {
			timer.Stop()
		}
	}
	return s.finish()
}

func (s *supervisor) cancelAll() {
	for _, sh := range s.shards {
		//vgencheck:ordered canceling every attempt context; cancellation is idempotent and order-free
		for _, cancel := range sh.cancels {
			cancel()
		}
	}
}

// dispatch fills free healthy slots: eligible pending shards first
// (lowest index), then — with nothing pending and stealing enabled —
// speculative duplicates of the oldest stragglers.
func (s *supervisor) dispatch(ctx context.Context) {
	for {
		slot := s.freeHealthySlot()
		if slot == nil {
			return
		}
		now := time.Now()
		var pick *shardState
		steal := false
		for _, sh := range s.shards {
			if sh.state == statePending && !now.Before(sh.eligible) {
				pick = sh
				break
			}
		}
		if pick == nil && s.cfg.StealAfter > 0 {
			for _, sh := range s.shards {
				if sh.state == stateRunning && sh.inflight == 1 &&
					sh.attempts < s.cfg.MaxAttempts &&
					now.Sub(sh.started) >= s.cfg.StealAfter {
					if pick == nil || sh.started.Before(pick.started) {
						pick = sh
					}
				}
			}
			steal = pick != nil
		}
		if pick == nil {
			return
		}
		s.start(ctx, pick, slot, steal)
	}
}

// nextWake computes when dispatch could next make progress without a new
// result arriving: the earliest pending backoff expiry or straggler
// steal-eligibility. Only meaningful while a healthy slot is free.
func (s *supervisor) nextWake() (time.Time, bool) {
	if s.freeHealthySlot() == nil {
		return time.Time{}, false
	}
	var wake time.Time
	have := false
	add := func(t time.Time) {
		if !have || t.Before(wake) {
			wake, have = t, true
		}
	}
	for _, sh := range s.shards {
		switch sh.state {
		case statePending:
			add(sh.eligible)
		case stateRunning:
			if s.cfg.StealAfter > 0 && sh.inflight == 1 && sh.attempts < s.cfg.MaxAttempts {
				add(sh.started.Add(s.cfg.StealAfter))
			}
		}
	}
	return wake, have
}

func (s *supervisor) start(ctx context.Context, sh *shardState, slot *slotState, steal bool) {
	sh.attempts++
	att := sh.attempts
	var actx context.Context
	var cancel context.CancelFunc
	if s.cfg.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	sh.cancels[att] = cancel
	if sh.state != stateRunning {
		sh.state = stateRunning
		sh.started = time.Now()
	}
	sh.inflight++
	slot.busy = true
	a := Attempt{
		Shard: sh.idx, Attempt: att, Slot: slot.idx,
		PlanPath: sh.planPath,
		OutPath:  fmt.Sprintf("%s.attempt-%d", sh.resultPath, att),
	}
	kind := EventStart
	if steal {
		kind = EventSteal
	}
	s.emit(Event{Kind: kind, Shard: sh.idx, Attempt: att, Slot: slot.idx})
	s.inflight++
	go func() {
		s.results <- attemptDone{a: a, err: s.launcher.Launch(actx, a)}
	}()
}

// handle applies one finished attempt to the state machine. The attempt's
// result counts only after full decode validation; a validated result is
// renamed into place atomically and supersedes any speculative siblings.
func (s *supervisor) handle(r attemptDone) {
	s.inflight--
	sh := s.shards[r.a.Shard]
	slot := s.slots[r.a.Slot]
	slot.busy = false
	if cancel := sh.cancels[r.a.Attempt]; cancel != nil {
		cancel()
		delete(sh.cancels, r.a.Attempt)
	}
	sh.inflight--

	err := r.err
	if err == nil {
		err = validateResultFile(r.a.OutPath, sh.meta, sh.coords)
	}
	if err == nil && sh.state != stateDone {
		if rerr := os.Rename(r.a.OutPath, sh.resultPath); rerr != nil {
			err = rerr
		} else {
			sh.state = stateDone
			slot.fails = 0
			//vgencheck:ordered reaping speculative siblings; cancellation is idempotent and order-free
			for _, cancel := range sh.cancels {
				cancel()
			}
			s.emit(Event{Kind: EventDone, Shard: sh.idx, Attempt: r.a.Attempt, Slot: r.a.Slot})
			return
		}
	}
	os.Remove(r.a.OutPath) // failed attempt or speculative loser: drop its file
	if err == nil {
		slot.fails = 0 // speculative loser with a valid result: healthy work
		return
	}
	if sh.state == stateDone {
		return // canceled sibling of a winner: not a slot failure
	}

	slot.fails++
	if !slot.quarantined && slot.fails >= s.cfg.UnhealthyAfter && s.healthySlots() > 1 {
		slot.quarantined = true
		s.emit(Event{Kind: EventQuarantine, Slot: slot.idx, Err: err.Error()})
	}
	sh.lastErr = err.Error()
	if sh.inflight > 0 {
		return // a sibling attempt is still in flight and may win
	}
	if sh.attempts >= s.cfg.MaxAttempts {
		sh.state = stateFailed
		s.emit(Event{Kind: EventGiveUp, Shard: sh.idx, Attempt: r.a.Attempt, Err: err.Error()})
		return
	}
	delay := s.backoff(sh.idx, sh.attempts)
	sh.eligible = time.Now().Add(delay)
	sh.state = statePending
	s.emit(Event{Kind: EventRetry, Shard: sh.idx, Attempt: r.a.Attempt, Slot: r.a.Slot, Delay: delay, Err: err.Error()})
}

// backoff is the delay before the shard's next attempt: exponential from
// BackoffBase, capped at BackoffCap, with deterministic jitter in
// [d/2, d) hashed from (seed, shard, attempt) so retry storms decorrelate
// without making runs irreproducible.
func (s *supervisor) backoff(shard, attempt int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < attempt && d < s.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	h := splitmix64(uint64(s.cfg.Seed) ^ uint64(shard)<<40 ^ uint64(attempt)<<20)
	half := d / 2
	return half + time.Duration(uint64(half)*(h&1023)/1024)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (s *supervisor) finish() (*Result, error) {
	res := &Result{}
	var paths []string
	for _, sh := range s.shards {
		res.Shards = append(res.Shards, ShardStatus{
			Shard: sh.idx, Attempts: sh.attempts,
			Done: sh.state == stateDone, Resumed: sh.resumed, Err: sh.lastErr,
		})
		if sh.state == stateDone {
			paths = append(paths, sh.resultPath)
		} else {
			res.FailedShards = append(res.FailedShards, sh.idx)
			res.MissingCells = append(res.MissingCells, sh.coords...)
		}
	}
	sort.Slice(res.MissingCells, func(i, j int) bool {
		return res.MissingCells[i].Less(res.MissingCells[j])
	})
	var set *eval.ResultSet
	var meta wire.Meta
	if len(paths) == 0 {
		if s.adopted.Len() == 0 {
			return nil, fmt.Errorf("coord: every shard failed; last error: %s", s.shards[0].lastErr)
		}
		// Every dispatched shard failed, but the store had already paid for
		// part of the sweep: degrade to the adopted cells instead of dying.
		set, meta = eval.NewResultSet(), s.fw.ShardMeta(-1, s.cfg.Shards)
	} else {
		var err error
		set, meta, _, err = core.MergeShardFilesPartial(paths)
		if err != nil {
			return nil, err
		}
	}
	// Adopted cells and computed cells are disjoint by construction (the
	// shard plans are the full plan minus the adopted set), so the merge
	// is a plain union.
	if err := set.Merge(s.adopted); err != nil {
		return nil, err
	}
	res.Set, res.Meta = set, meta
	if err := s.accountStore(res); err != nil {
		return nil, err
	}
	return res, nil
}

// accountStore banks the run's validated cells through Store.PutSet
// (identical cells are already resident; a conflicting cell is upstream
// nondeterminism and fails the run loudly) and fills the Result's store
// counters. A store-less run is a no-op.
func (s *supervisor) accountStore(res *Result) error {
	st := s.fw.Store
	if st == nil {
		return nil
	}
	res.StoreUsed = true
	res.StoreAdopted = s.adopted.Len()
	if _, _, err := st.PutSet(s.fw.SweepIdentity(), res.Set); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	res.StoreNew = st.Added()
	return nil
}

// validateResultFile accepts path only if it holds a complete,
// well-formed wire results file for exactly this shard of this sweep:
// full decode validation, identity match, and the planned cell set with
// nothing missing and nothing extra. This is the only way a shard ever
// counts as done — worker exit status is merely advisory.
func validateResultFile(path string, want wire.Meta, coords []eval.Coord) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sh, err := wire.ReadResults(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if sh.Meta != want {
		return fmt.Errorf("coord: %s: shard identity %+v, want %+v", path, sh.Meta, want)
	}
	if sh.Set.Len() != len(coords) {
		return fmt.Errorf("coord: %s: %d cells, plan has %d", path, sh.Set.Len(), len(coords))
	}
	for _, c := range coords {
		if _, ok := sh.Set.Get(c); !ok {
			return fmt.Errorf("coord: %s: planned cell %+v missing", path, c)
		}
	}
	return nil
}

// writePlanFile serializes one shard plan through the single durable
// write path (core.WriteFileAtomic: temp + fsync + rename), mirroring
// the result files' crash-safety. It used to carry its own copy of the
// atomic-write dance; the goanalysis durables pass flagged the
// duplication when WriteFileAtomic was still unexported.
func writePlanFile(path string, m wire.Meta, coords []eval.Coord) error {
	return core.WriteFileAtomic(path, func(out *os.File) error {
		return wire.WritePlan(out, m, coords)
	})
}
