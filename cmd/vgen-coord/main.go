// Command vgen-coord runs a supervised distributed sweep: it plans the
// shards, drives them through internal/coord's retry state machine —
// per-attempt timeouts, exponential backoff, worker quarantine,
// work-stealing of stragglers — and renders the merged tables, which are
// byte-identical to a monolithic vgen-eval run of the same sweep.
//
// Usage:
//
//	vgen-coord -dir STATE [-backend NAME] [-replay FILE] [-seed N] [-n N]
//	           [-quick] [-corpus-files N] [-workers N]
//	           [-experiment all|table3|table4|fig6|fig7|headline|passk|problems]
//	           [-shards N] [-parallel N] [-proc]
//	           [-timeout D] [-max-attempts N] [-backoff D] [-backoff-cap D]
//	           [-steal-after D] [-unhealthy-after N]
//	           [-endpoint URL] [-auth-env VAR] [-batch N]
//	           [-remote-timeout D] [-remote-budget D]
//	           [-fault kind:shard:attempt,...] [-allow-partial] [-quiet]
//	           [-store DIR]
//	vgen-coord -backend list
//
// -dir is the durable state directory: shard plans, validated shard
// results, and in-progress attempt files live there. Rerunning on the
// same directory resumes — shards whose result files decode-validate are
// adopted without execution, so a killed coordinator costs only the work
// in flight.
//
// -store points at a persistent result store (DESIGN.md Section 14):
// cells already resident under this sweep's identity are adopted before
// shards are planned — a fully warm sweep completes without launching a
// single worker — and validated shard results merge back into the store
// afterward. Only the coordinator process writes the store directory,
// preserving the one-writer-per-directory contract: in-process attempts
// run through the coordinator's framework and bank their cells through
// its cached source, while -proc workers never open the store.
//
// By default attempts run in-process. -proc launches each attempt as a
// worker subprocess (this same binary in a hidden worker mode), so a
// worker crash, OOM kill, or hang is isolated from the coordinator; the
// supervision behavior is identical either way.
//
// Workers share compiled simulation artifacts within their own process
// (DESIGN.md Section 15): each distinct candidate is compiled and
// simulated once, its verdict kept in a memo, and compiled expression
// plans are cached; the verdict memo and the plan cache hold 4 MiB of
// accounted bytes each. Sharing never changes results.
//
// -fault injects deterministic failures (crash, hang, truncate, corrupt;
// "*" for every attempt of a shard) at the supervision boundary — the
// fault-injection harness, exposed for demos and CI gates. Injected or
// real, a failure is retried with backoff until -max-attempts; a shard
// that exhausts its budget degrades the run to an explicit partial
// result, which exits non-zero unless -allow-partial.
//
// The sweep and backend flags are vgen-eval's (core.BindFlags), resolved
// by the same rules (-replay implies -backend replay, -endpoint -backend
// remote; DESIGN.md Section 13; errors exit 2), and reach -proc workers
// on their command line — except the auth token, which travels only as
// the inherited environment variable named by -auth-env. The two retry
// layers compose: transport retries absorb transient network faults
// inside a shard attempt; anything that outlives them surfaces as
// missing cells, fails the shard's validation, and spends one
// shard-level retry (-max-attempts) — the shard budget is never consumed
// by a fault the transport already healed.
//
// The per-shard event stream (plan/resume/start/steal/retry/quarantine/
// done) goes to stderr as it happens; tables go to stdout at the end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/harness"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgen-coord: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	// Sweep/backend flags, shared with vgen-eval so the supervised and
	// monolithic runs of one sweep are configured identically. Transport
	// retries compose *under* shard retries: a remote worker first retries
	// each request on the transport's fixed schedule; only when a cell
	// still cannot be served does the shard result come up short, fail
	// validation, and consume one of the shard's -max-attempts.
	shared := core.BindFlags(flag.CommandLine)
	experiment := flag.String("experiment", "all", "which cell-based artifact(s) to sweep and render")

	// Supervision flags.
	shards := flag.Int("shards", 4, "partition count of the sweep")
	parallel := flag.Int("parallel", 2, "concurrent worker slots")
	dir := flag.String("dir", "", "durable state directory (required); rerun on the same directory resumes")
	timeout := flag.Duration("timeout", 0, "per-attempt wall-clock budget (0 = none)")
	maxAttempts := flag.Int("max-attempts", 3, "per-shard attempt budget, speculative duplicates included")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "base retry delay, doubling per attempt")
	backoffCap := flag.Duration("backoff-cap", 5*time.Second, "retry delay ceiling")
	stealAfter := flag.Duration("steal-after", 0, "age after which an idle slot speculatively duplicates a straggler (0 = off)")
	unhealthyAfter := flag.Int("unhealthy-after", 3, "consecutive failures that quarantine a worker slot")
	proc := flag.Bool("proc", false, "run each attempt as a worker subprocess instead of in-process")
	storeDir := flag.String("store", "", "persistent result store directory: resident cells are adopted before shards are planned, and validated results merge back (coordinator process only: in-process attempts bank through it, -proc workers never open it)")
	faultSpec := flag.String("fault", "", "inject failures: kind:shard:attempt[,...] with kind crash|hang|truncate|corrupt and '*' for every attempt")
	allowPartial := flag.Bool("allow-partial", false, "exit 0 on a partial result (missing shards/cells are reported either way)")
	quiet := flag.Bool("quiet", false, "suppress the per-shard event stream")

	// Hidden worker mode: what -proc execs. Deliberately undocumented in
	// the usage string — the coordinator builds these command lines.
	workerPlan := flag.String("worker-plan", "", "worker mode: execute this serialized shard plan")
	workerOut := flag.String("worker-out", "", "worker mode: write the shard result file here")
	flag.Parse()

	coreCfg, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if coreCfg.Backend == "list" {
		core.ListBackends(os.Stdout)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerPlan != "" || *workerOut != "" {
		if *workerPlan == "" || *workerOut == "" {
			fail("worker mode needs both -worker-plan and -worker-out")
		}
		runWorker(ctx, *workerPlan, *workerOut, coreCfg)
		return
	}

	if *dir == "" {
		fail("-dir is required: the durable state directory is what makes a coordinator resumable")
	}
	if _, err := harness.Select(*experiment, true); err != nil {
		fmt.Fprintf(os.Stderr, "-experiment: %v\n", err)
		os.Exit(2)
	}
	faults, err := coord.ParseFaultPlan(*faultSpec)
	if err != nil {
		fail("%v", err)
	}

	// The store attaches to the coordinator only: -proc workers never get
	// -store, preserving the one-writer-per-directory discipline. Their
	// validated results reach the store through the coordinator's merge.
	coreCfg.StoreDir = *storeDir
	fw, err := core.New(coreCfg)
	if err != nil {
		fail("%v", err)
	}

	var launcher coord.Launcher = &coord.FrameworkLauncher{FW: fw}
	if *proc {
		exe, err := os.Executable()
		if err != nil {
			fail("-proc: %v", err)
		}
		// Every shared flag is threaded through to the worker. The auth
		// token travels by env var name — subprocesses inherit the
		// environment, so the secret itself stays out of argv.
		base := append([]string{exe}, core.Args(coreCfg)...)
		launcher = &coord.ProcLauncher{Argv: func(a coord.Attempt) []string {
			return append(append([]string(nil), base...),
				"-worker-plan", a.PlanPath, "-worker-out", a.OutPath)
		}}
	}
	if !faults.Empty() {
		launcher = &coord.FaultyLauncher{Inner: launcher, Plan: faults}
	}

	cfg := coord.Config{
		Experiments: []string{*experiment},
		Shards:      *shards,
		Workers:     *parallel,
		Dir:         *dir,
		Timeout:     *timeout,
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoff,
		BackoffCap:  *backoffCap,
		StealAfter:  *stealAfter,

		UnhealthyAfter: *unhealthyAfter,
		Seed:           coreCfg.Seed,
	}
	if !*quiet {
		cfg.Events = streamEvent
	}

	res, err := coord.Run(ctx, fw, cfg, launcher)
	if err != nil {
		fw.Close()
		fail("%v", err)
	}
	fmt.Fprint(os.Stderr, res.Report())
	if err := harness.Print(os.Stdout, *experiment, harness.FromResults(res.Set, coreCfg.Sweep), nil); err != nil {
		fw.Close()
		fail("%v", err)
	}
	if err := fw.Close(); err != nil {
		fail("%v", err)
	}
	if !res.Complete() && !*allowPartial {
		os.Exit(1)
	}
}

// runWorker is the subprocess side of -proc: execute one serialized
// shard plan under signal cancellation, exactly as vgen-eval -from-plan
// would. Its output counts only after the coordinator's own validation.
func runWorker(ctx context.Context, planPath, outPath string, cfg core.Config) {
	fw, err := core.New(cfg)
	if err != nil {
		fail("worker: %v", err)
	}
	if err := fw.RunPlanFileCtx(ctx, planPath, outPath); err != nil {
		fail("worker: %v", err)
	}
}

// streamEvent renders one supervision event for the live stderr stream.
func streamEvent(e coord.Event) {
	switch e.Kind {
	case coord.EventPlanned:
		fmt.Fprintf(os.Stderr, "coord: shard %d planned\n", e.Shard)
	case coord.EventResume:
		fmt.Fprintf(os.Stderr, "coord: shard %d resumed from durable result\n", e.Shard)
	case coord.EventStart:
		fmt.Fprintf(os.Stderr, "coord: shard %d attempt %d -> slot %d\n", e.Shard, e.Attempt, e.Slot)
	case coord.EventSteal:
		fmt.Fprintf(os.Stderr, "coord: shard %d attempt %d -> slot %d (stolen straggler)\n", e.Shard, e.Attempt, e.Slot)
	case coord.EventDone:
		fmt.Fprintf(os.Stderr, "coord: shard %d done (attempt %d, slot %d)\n", e.Shard, e.Attempt, e.Slot)
	case coord.EventRetry:
		fmt.Fprintf(os.Stderr, "coord: shard %d attempt %d failed: %s; retry in %s\n", e.Shard, e.Attempt, e.Err, e.Delay.Round(time.Millisecond))
	case coord.EventGiveUp:
		fmt.Fprintf(os.Stderr, "coord: shard %d FAILED after %d attempts: %s\n", e.Shard, e.Attempt, e.Err)
	case coord.EventQuarantine:
		fmt.Fprintf(os.Stderr, "coord: slot %d quarantined: %s\n", e.Slot, e.Err)
	default:
		fmt.Fprintf(os.Stderr, "coord: %s %+v\n", e.Kind, e)
	}
}
