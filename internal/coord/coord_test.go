package coord

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
)

// The suite runs real supervised sweeps over the mutant backend (cheap,
// deterministic, no corpus) with faults injected at the supervision
// boundary, and holds every recovery path to the same bar: the merged
// result must equal the monolithic single-process run cell for cell.

var testExps = []string{"table3"}

func coordFW(t *testing.T) *core.Framework {
	t.Helper()
	fw, err := core.New(core.Config{
		Seed:    7,
		Backend: "mutant",
		Sweep:   eval.SweepOptions{N: 1, Temperatures: []float64{0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// monolithic is the ground truth: the whole sweep in one process, no
// supervision, no sharding.
func monolithic(t *testing.T, fw *core.Framework) *eval.ResultSet {
	t.Helper()
	rs, _, err := fw.ExecuteShardCtx(context.Background(), testExps, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// sameCells asserts got covers exactly want's coordinates with identical
// stats — CellStats compares with ==, so this pins the float sums
// bit-for-bit, which is what makes the rendered tables byte-identical.
func sameCells(t *testing.T, got, want *eval.ResultSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("merged set has %d cells, monolithic has %d", got.Len(), want.Len())
	}
	for _, c := range want.Coords() {
		g, ok := got.Get(c)
		w, _ := want.Get(c)
		if !ok {
			t.Fatalf("cell %+v missing from supervised result", c)
		}
		if g != w {
			t.Fatalf("cell %+v: supervised %+v != monolithic %+v", c, g, w)
		}
	}
}

// eventLog records the supervision stream. Events arrive synchronously
// from the coordinator goroutine, so plain appends are race-free.
type eventLog struct{ events []Event }

func (l *eventLog) add(e Event) { l.events = append(l.events, e) }
func (l *eventLog) count(k EventKind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// countingLauncher counts Launch calls around an inner launcher.
type countingLauncher struct {
	inner Launcher
	calls atomic.Int64
}

func (l *countingLauncher) Launch(ctx context.Context, a Attempt) error {
	l.calls.Add(1)
	return l.inner.Launch(ctx, a)
}

func baseConfig(dir string, log *eventLog) Config {
	return Config{
		Experiments: testExps,
		Shards:      4,
		Workers:     2,
		Dir:         dir,
		BackoffBase: time.Millisecond,
		Seed:        7,
		Events:      log.add,
	}
}

func TestSupervisedCleanRunMatchesMonolithic(t *testing.T) {
	fw := coordFW(t)
	log := &eventLog{}
	cfg := baseConfig(t.TempDir(), log)
	res, err := Run(context.Background(), fw, cfg, &FrameworkLauncher{FW: fw})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("clean run incomplete: %s", res.Report())
	}
	sameCells(t, res.Set, monolithic(t, fw))
	for _, st := range res.Shards {
		if st.Attempts != 1 || !st.Done || st.Resumed {
			t.Errorf("shard %d status %+v, want one clean attempt", st.Shard, st)
		}
	}
	if got := log.count(EventDone); got != cfg.Shards {
		t.Errorf("%d done events for %d shards", got, cfg.Shards)
	}
	if got := log.count(EventRetry) + log.count(EventGiveUp) + log.count(EventQuarantine); got != 0 {
		t.Errorf("clean run emitted %d failure events", got)
	}
}

// TestFaultRecovery drives each injected failure mode — and then all of
// them at once — through the retry machinery and demands a complete,
// monolithic-identical result. Truncate and corrupt matter most: the
// launcher reports success, so only the supervisor's decode validation
// stands between them and a silently wrong merge.
func TestFaultRecovery(t *testing.T) {
	fw := coordFW(t)
	want := monolithic(t, fw)
	cases := []struct {
		name    string
		plan    *FaultPlan
		timeout time.Duration
		retried []int // shards that must show >1 attempt
	}{
		{"crash", NewFaultPlan().Add(1, 1, FaultCrash), 0, []int{1}},
		{"truncate", NewFaultPlan().Add(2, 1, FaultTruncate), 0, []int{2}},
		{"corrupt", NewFaultPlan().Add(0, 1, FaultCorrupt), 0, []int{0}},
		{"hang", NewFaultPlan().Add(3, 1, FaultHang), 300 * time.Millisecond, []int{3}},
		{"all-at-once", NewFaultPlan().
			Add(0, 1, FaultCorrupt).Add(1, 1, FaultCrash).
			Add(2, 1, FaultTruncate).Add(3, 1, FaultHang),
			300 * time.Millisecond, []int{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &eventLog{}
			cfg := baseConfig(t.TempDir(), log)
			cfg.Timeout = tc.timeout
			l := &FaultyLauncher{Inner: &FrameworkLauncher{FW: fw}, Plan: tc.plan}
			res, err := Run(context.Background(), fw, cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete() {
				t.Fatalf("recovery failed: %s", res.Report())
			}
			sameCells(t, res.Set, want)
			for _, shard := range tc.retried {
				if res.Shards[shard].Attempts < 2 {
					t.Errorf("shard %d recovered in %d attempts, expected a retry",
						shard, res.Shards[shard].Attempts)
				}
			}
			if log.count(EventRetry) < len(tc.retried) {
				t.Errorf("%d retry events, want >= %d", log.count(EventRetry), len(tc.retried))
			}
		})
	}
}

// TestRetryExhaustionDegradesToPartial: a shard that fails every attempt
// must not kill the run — the coordinator merges what completed and
// reports the gap explicitly.
func TestRetryExhaustionDegradesToPartial(t *testing.T) {
	fw := coordFW(t)
	log := &eventLog{}
	cfg := baseConfig(t.TempDir(), log)
	cfg.MaxAttempts = 2
	l := &FaultyLauncher{
		Inner: &FrameworkLauncher{FW: fw},
		Plan:  NewFaultPlan().Add(2, AnyAttempt, FaultCrash),
	}
	res, err := Run(context.Background(), fw, cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("persistently failing shard reported complete")
	}
	if len(res.FailedShards) != 1 || res.FailedShards[0] != 2 {
		t.Fatalf("FailedShards = %v, want [2]", res.FailedShards)
	}
	if res.Shards[2].Attempts != cfg.MaxAttempts {
		t.Errorf("failed shard used %d attempts, budget was %d", res.Shards[2].Attempts, cfg.MaxAttempts)
	}
	if log.count(EventGiveUp) != 1 {
		t.Errorf("%d give-up events, want 1", log.count(EventGiveUp))
	}

	// The merged set must hold exactly the other shards' cells, and
	// MissingCells exactly shard 2's plan, in canonical order.
	plan2, _, err := fw.ShardPlan(testExps, 2, cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	full := monolithic(t, fw)
	if res.Set.Len() != full.Len()-len(plan2.Coords()) {
		t.Errorf("partial set has %d cells, want %d", res.Set.Len(), full.Len()-len(plan2.Coords()))
	}
	if len(res.MissingCells) != len(plan2.Coords()) {
		t.Fatalf("%d missing cells, shard 2 planned %d", len(res.MissingCells), len(plan2.Coords()))
	}
	for _, c := range plan2.Coords() {
		if _, ok := res.Set.Get(c); ok {
			t.Fatalf("failed shard's cell %+v present in merge", c)
		}
	}
	for i := 1; i < len(res.MissingCells); i++ {
		if !res.MissingCells[i-1].Less(res.MissingCells[i]) {
			t.Fatal("MissingCells not in canonical order")
		}
	}
	rep := res.Report()
	if !strings.Contains(rep, "PARTIAL") || !strings.Contains(rep, "shard 2") {
		t.Errorf("report does not name the gap:\n%s", rep)
	}
}

func TestEveryShardFailingIsAnError(t *testing.T) {
	fw := coordFW(t)
	cfg := baseConfig(t.TempDir(), &eventLog{})
	cfg.MaxAttempts = 2
	plan := NewFaultPlan()
	for i := 0; i < cfg.Shards; i++ {
		plan.Add(i, AnyAttempt, FaultCrash)
	}
	l := &FaultyLauncher{Inner: &FrameworkLauncher{FW: fw}, Plan: plan}
	if _, err := Run(context.Background(), fw, cfg, l); err == nil {
		t.Fatal("sweep with zero completed shards returned a Result")
	}
}

// TestResumeFromDurableShards: a second coordinator on the same directory
// must adopt validated results, recompute damaged ones, and execute only
// what is actually missing.
func TestResumeFromDurableShards(t *testing.T) {
	fw := coordFW(t)
	dir := t.TempDir()

	// First life: shard 1 fails its whole budget; the rest complete.
	cfg := baseConfig(dir, &eventLog{})
	cfg.MaxAttempts = 1
	l := &FaultyLauncher{
		Inner: &FrameworkLauncher{FW: fw},
		Plan:  NewFaultPlan().Add(1, AnyAttempt, FaultCrash),
	}
	res, err := Run(context.Background(), fw, cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() || len(res.FailedShards) != 1 {
		t.Fatalf("setup run: FailedShards = %v, want [1]", res.FailedShards)
	}

	// Damage one durable result the way a torn copy would: resume must
	// detect it through validation and recompute, not trust the filename.
	shard3 := filepath.Join(dir, "shard-3.jsonl")
	if fi, err := os.Stat(shard3); err != nil {
		t.Fatal(err)
	} else if err := os.Truncate(shard3, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	// Second life: no faults. Shards 0 and 2 resume; 1 and 3 execute.
	log := &eventLog{}
	cfg2 := baseConfig(dir, log)
	counter := &countingLauncher{inner: &FrameworkLauncher{FW: fw}}
	res2, err := Run(context.Background(), fw, cfg2, counter)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete() {
		t.Fatalf("resumed run incomplete: %s", res2.Report())
	}
	sameCells(t, res2.Set, monolithic(t, fw))
	if got := log.count(EventResume); got != 2 {
		t.Errorf("%d resume events, want 2 (shards 0 and 2)", got)
	}
	if got := counter.calls.Load(); got != 2 {
		t.Errorf("resume executed %d attempts, want 2 (shards 1 and 3)", got)
	}
	for _, i := range []int{0, 2} {
		if !res2.Shards[i].Resumed {
			t.Errorf("shard %d not marked resumed", i)
		}
	}
	for _, i := range []int{1, 3} {
		if res2.Shards[i].Resumed {
			t.Errorf("shard %d marked resumed, should have executed", i)
		}
	}
}

// TestWorkStealing: with no timeout at all, a wedged first attempt can
// only be rescued by an idle slot running a speculative duplicate.
func TestWorkStealing(t *testing.T) {
	fw := coordFW(t)
	log := &eventLog{}
	cfg := baseConfig(t.TempDir(), log)
	cfg.Shards = 1
	cfg.Workers = 2
	cfg.StealAfter = 20 * time.Millisecond
	l := &FaultyLauncher{
		Inner: &FrameworkLauncher{FW: fw},
		Plan:  NewFaultPlan().Add(0, 1, FaultHang),
	}
	res, err := Run(context.Background(), fw, cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("steal did not rescue the straggler: %s", res.Report())
	}
	sameCells(t, res.Set, monolithic(t, fw))
	if log.count(EventSteal) == 0 {
		t.Error("no steal event for a wedged straggler")
	}
	if res.Shards[0].Attempts != 2 {
		t.Errorf("straggler took %d attempts, want 2 (original + steal)", res.Shards[0].Attempts)
	}
}

// slotFailLauncher simulates one broken worker slot (bad node, full
// disk): every attempt dispatched to it fails fast.
type slotFailLauncher struct {
	inner Launcher
	bad   int
}

func (l *slotFailLauncher) Launch(ctx context.Context, a Attempt) error {
	if a.Slot == l.bad {
		return errors.New("slot hardware on fire")
	}
	return l.inner.Launch(ctx, a)
}

// TestQuarantineReassignsToHealthySlot: consecutive failures take a slot
// out of rotation and its shards complete on the healthy one.
func TestQuarantineReassignsToHealthySlot(t *testing.T) {
	fw := coordFW(t)
	log := &eventLog{}
	cfg := baseConfig(t.TempDir(), log)
	cfg.Shards = 3
	cfg.Workers = 2
	cfg.UnhealthyAfter = 2
	cfg.MaxAttempts = 5
	l := &slotFailLauncher{inner: &FrameworkLauncher{FW: fw}, bad: 0}
	res, err := Run(context.Background(), fw, cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("run with one broken slot incomplete: %s", res.Report())
	}
	sameCells(t, res.Set, monolithic(t, fw))
	if got := log.count(EventQuarantine); got != 1 {
		t.Fatalf("%d quarantine events, want 1", got)
	}
	for _, e := range log.events {
		if e.Kind == EventQuarantine && e.Slot != 0 {
			t.Errorf("quarantined slot %d, want 0", e.Slot)
		}
	}
}

// TestLastHealthySlotNeverQuarantined: with every slot broken the
// coordinator must keep trying (and ultimately fail on attempt budget),
// not quarantine itself into a stall.
func TestLastHealthySlotNeverQuarantined(t *testing.T) {
	fw := coordFW(t)
	log := &eventLog{}
	cfg := baseConfig(t.TempDir(), log)
	cfg.Shards = 1
	cfg.Workers = 1
	cfg.UnhealthyAfter = 1
	cfg.MaxAttempts = 3
	l := &slotFailLauncher{inner: &FrameworkLauncher{FW: fw}, bad: 0}
	if _, err := Run(context.Background(), fw, cfg, l); err == nil {
		t.Fatal("all-slots-broken run returned a Result")
	}
	if got := log.count(EventQuarantine); got != 0 {
		t.Errorf("%d quarantine events with a single slot, want 0", got)
	}
}

// TestShutdownLeavesDurableState: cancellation mid-run returns the
// context error, reaps in-flight attempts, and leaves completed shards
// on disk for the next coordinator to resume.
func TestShutdownLeavesDurableState(t *testing.T) {
	fw := coordFW(t)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := baseConfig(dir, &eventLog{})
	cfg.Shards = 2
	cfg.Workers = 2
	// Shard 1 wedges; as soon as shard 0's result lands, kill the run.
	cfg.Events = func(e Event) {
		if e.Kind == EventDone {
			cancel()
		}
	}
	l := &FaultyLauncher{
		Inner: &FrameworkLauncher{FW: fw},
		Plan:  NewFaultPlan().Add(1, AnyAttempt, FaultHang),
	}
	if _, err := Run(ctx, fw, cfg, l); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}

	// Next life on the same directory: shard 0 resumes, shard 1 runs.
	log := &eventLog{}
	cfg2 := baseConfig(dir, log)
	cfg2.Shards = 2
	counter := &countingLauncher{inner: &FrameworkLauncher{FW: fw}}
	res, err := Run(context.Background(), fw, cfg2, counter)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("post-shutdown resume incomplete: %s", res.Report())
	}
	if got := log.count(EventResume); got != 1 {
		t.Errorf("%d resume events after shutdown, want 1", got)
	}
	if got := counter.calls.Load(); got != 1 {
		t.Errorf("resume executed %d attempts, want 1", got)
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("crash:1:1, truncate:3:2 ,hang:2:*")
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		shard, attempt int
		want           FaultKind
	}{
		{1, 1, FaultCrash}, {1, 2, FaultNone},
		{3, 2, FaultTruncate}, {3, 1, FaultNone},
		{2, 1, FaultHang}, {2, 7, FaultHang},
		{0, 1, FaultNone},
	}
	for _, c := range checks {
		if got := p.Lookup(c.shard, c.attempt); got != c.want {
			t.Errorf("Lookup(%d, %d) = %v, want %v", c.shard, c.attempt, got, c.want)
		}
	}
	if p.Empty() {
		t.Error("populated plan reports Empty")
	}
	if empty, err := ParseFaultPlan("  "); err != nil || !empty.Empty() {
		t.Errorf("blank spec: plan %+v, err %v", empty, err)
	}
	for _, bad := range []string{"crash:1", "melt:1:1", "crash:x:1", "crash:1:0", "crash:-1:1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// An exact entry refines an every-attempt entry for the same shard.
	refined := NewFaultPlan().Add(4, AnyAttempt, FaultHang).Add(4, 2, FaultCrash)
	if got := refined.Lookup(4, 2); got != FaultCrash {
		t.Errorf("exact entry did not win over wildcard: %v", got)
	}
	if got := refined.Lookup(4, 1); got != FaultHang {
		t.Errorf("wildcard entry lost: %v", got)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg, err := Config{
		Shards: 1, Dir: "unused",
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  time.Second,
		Seed:        7,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := &supervisor{cfg: cfg}
	for attempt := 1; attempt <= 8; attempt++ {
		base := cfg.BackoffBase << (attempt - 1)
		if base > cfg.BackoffCap {
			base = cfg.BackoffCap
		}
		for shard := 0; shard < 4; shard++ {
			d := s.backoff(shard, attempt)
			if d != s.backoff(shard, attempt) {
				t.Fatalf("backoff(%d, %d) not deterministic", shard, attempt)
			}
			if d < base/2 || d >= base {
				t.Errorf("backoff(%d, %d) = %v outside [%v, %v)", shard, attempt, d, base/2, base)
			}
		}
	}
	// Jitter must actually decorrelate shards (else a crash storm
	// re-dispatches in lockstep).
	if s.backoff(0, 3) == s.backoff(1, 3) && s.backoff(1, 3) == s.backoff(2, 3) {
		t.Error("per-shard jitter is constant")
	}
}

func TestProcLauncher(t *testing.T) {
	l := &ProcLauncher{Argv: func(a Attempt) []string {
		return []string{"/bin/sh", "-c", "exit 0"}
	}}
	a := Attempt{Shard: 0, Attempt: 1}
	if err := l.Launch(context.Background(), a); err != nil {
		t.Fatalf("trivial worker failed: %v", err)
	}

	// Failure surfaces the worker's stderr tail in the error.
	l = &ProcLauncher{Argv: func(a Attempt) []string {
		return []string{"/bin/sh", "-c", "echo doom >&2; exit 3"}
	}}
	err := l.Launch(context.Background(), a)
	if err == nil || !strings.Contains(err.Error(), "doom") {
		t.Fatalf("worker failure lost its stderr: %v", err)
	}

	// Cancellation kills the process and reports the context's error,
	// not the kill-induced exit status.
	l = &ProcLauncher{Argv: func(a Attempt) []string {
		return []string{"/bin/sh", "-c", "sleep 30"}
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := l.Launch(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled worker returned %v, want context.DeadlineExceeded", err)
	}

	l = &ProcLauncher{Argv: func(a Attempt) []string { return nil }}
	if err := l.Launch(context.Background(), a); err == nil {
		t.Fatal("empty argv accepted")
	}
}
