// Command vgen-coord runs a supervised distributed sweep: it plans the
// shards, drives them through internal/coord's retry state machine —
// per-attempt timeouts, exponential backoff, worker quarantine,
// work-stealing of stragglers — and renders the merged tables, which are
// byte-identical to a monolithic vgen-eval run of the same sweep.
//
// Usage:
//
//	vgen-coord -dir STATE [-backend NAME] [-seed N] [-n N] [-quick]
//	           [-experiment all|table3|table4|fig6|fig7|headline|passk|problems]
//	           [-shards N] [-parallel N] [-proc]
//	           [-plan-cache BYTES]
//	           [-timeout D] [-max-attempts N] [-backoff D] [-backoff-cap D]
//	           [-steal-after D] [-unhealthy-after N]
//	           [-endpoint URL] [-auth-env VAR] [-batch N] [-batch-linger D]
//	           [-remote-timeout D] [-remote-budget D] [-remote-attempts N]
//	           [-remote-backoff D] [-remote-backoff-cap D] [-remote-inflight N]
//	           [-breaker-threshold N] [-breaker-cooldown D]
//	           [-fault kind:shard:attempt,...] [-allow-partial] [-quiet]
//	           [-store DIR]
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
// afterward. Only the coordinator touches the store directory; workers
// never do, preserving the one-writer-per-directory contract.
//
// By default attempts run in-process. -proc launches each attempt as a
// worker subprocess (this same binary in a hidden worker mode), so a
// worker crash, OOM kill, or hang is isolated from the coordinator; the
// supervision behavior is identical either way.
//
// Workers share compiled simulation artifacts within their own process
// (DESIGN.md Section 15). -plan-cache bounds those caches in accounted
// bytes (0 = 4 MiB each, negative = unbounded) and threads through to
// -proc worker subprocesses. Sharing never changes results.
//
// -fault injects deterministic failures (crash, hang, truncate, corrupt;
// "*" for every attempt of a shard) at the supervision boundary — the
// fault-injection harness, exposed for demos and CI gates. Injected or
// real, a failure is retried with backoff until -max-attempts; a shard
// that exhausts its budget degrades the run to an explicit partial
// result, which exits non-zero unless -allow-partial.
//
// -endpoint points every worker at a vgen-serve instance (implies
// -backend remote; DESIGN.md Section 13). The remote knobs thread
// through to -proc worker subprocesses on their command line — except
// the auth token, which travels only as the inherited environment
// variable named by -auth-env. The two retry layers compose: transport
// retries (-remote-attempts, with backoff and circuit breaking) absorb
// transient network faults inside a shard attempt; anything that
// outlives them surfaces as missing cells, fails the shard's validation,
// and spends one shard-level retry (-max-attempts) — the shard budget is
// never consumed by a fault the transport already healed.
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
	"strconv"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgen-coord: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	// Sweep/backend flags, mirroring vgen-eval so the supervised and
	// monolithic runs of one sweep are configured identically.
	seed := flag.Int64("seed", 1, "determinism seed for corpus, models and sampling")
	n := flag.Int("n", 10, "completions per prompt")
	quick := flag.Bool("quick", false, "sweep only t=0.1 (fast; matches best-t tables)")
	experiment := flag.String("experiment", "all", "which cell-based artifact(s) to sweep and render")
	corpusFiles := flag.Int("corpus-files", 0, "synthetic corpus size (0 = default)")
	workers := flag.Int("workers", 0, "per-attempt evaluation pool width (0 = GOMAXPROCS)")
	planCache := flag.Int64("plan-cache", 0, "shared compiled plan/design cache budget in accounted bytes, each (0 = 4 MiB, negative = unbounded)")
	backend := flag.String("backend", "family", "generation backend by name")

	// Remote backend flags, mirroring vgen-eval. Transport retries compose
	// *under* shard retries: a remote worker first retries each request up
	// to -remote-attempts; only when a cell still cannot be served does the
	// shard result come up short, fail validation, and consume one of the
	// shard's -max-attempts. The shard-level budget is unchanged by any
	// remote knob.
	endpoint := flag.String("endpoint", "", "remote backend: completion service URL (implies -backend remote)")
	authEnv := flag.String("auth-env", "", "remote backend: environment variable holding the bearer token")
	remoteTimeout := flag.Duration("remote-timeout", 0, "remote backend: per-attempt HTTP deadline (0 = 30s)")
	remoteBudget := flag.Duration("remote-budget", 0, "remote backend: per-worker request deadline budget (0 = none)")
	remoteAttempts := flag.Int("remote-attempts", 0, "remote backend: per-request attempt budget (0 = 4)")
	remoteBackoff := flag.Duration("remote-backoff", 0, "remote backend: base retry backoff (0 = 50ms)")
	remoteBackoffCap := flag.Duration("remote-backoff-cap", 0, "remote backend: retry backoff cap (0 = 2s)")
	remoteInflight := flag.Int("remote-inflight", 0, "remote backend: max concurrent HTTP requests per worker (0 = 16)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "remote backend: consecutive failures that trip the circuit breaker (0 = 5)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "remote backend: open-breaker cooldown before a half-open probe (0 = 1s)")
	batchSize := flag.Int("batch", 0, "batch-capable backends: work items coalesced per CompleteBatch call (0 = 16)")
	batchLinger := flag.Duration("batch-linger", 0, "batch-capable backends: max wait before flushing a partial batch (0 = flush when the feed drains)")

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
	storeDir := flag.String("store", "", "persistent result store directory: resident cells are adopted before shards are planned, and validated results merge back (coordinator-only; workers never touch the store)")
	faultSpec := flag.String("fault", "", "inject failures: kind:shard:attempt[,...] with kind crash|hang|truncate|corrupt and '*' for every attempt")
	allowPartial := flag.Bool("allow-partial", false, "exit 0 on a partial result (missing shards/cells are reported either way)")
	quiet := flag.Bool("quiet", false, "suppress the per-shard event stream")

	// Hidden worker mode: what -proc execs. Deliberately undocumented in
	// the usage string — the coordinator builds these command lines.
	workerPlan := flag.String("worker-plan", "", "worker mode: execute this serialized shard plan")
	workerOut := flag.String("worker-out", "", "worker mode: write the shard result file here")
	flag.Parse()

	sweep := eval.SweepOptions{N: *n}
	if *quick {
		sweep.Temperatures = []float64{0.1}
		if *n > 6 {
			sweep.N = 6
		}
	}

	if *endpoint != "" {
		switch *backend {
		case "family": // default value: -endpoint alone implies the remote backend
			*backend = "remote"
		case "remote":
		default:
			fail("-endpoint conflicts with -backend %s (the endpoint would be ignored)", *backend)
		}
	}
	if *backend == "remote" && *endpoint == "" {
		fail("-backend remote needs -endpoint (the vgen-serve URL)")
	}
	var authToken string
	if *authEnv != "" {
		authToken = os.Getenv(*authEnv)
		if authToken == "" {
			fail("-auth-env: environment variable %s is empty or unset", *authEnv)
		}
	}

	coreCfg := core.Config{
		Seed: *seed, CorpusFiles: *corpusFiles, Sweep: sweep,
		Workers: *workers, Backend: *backend,
		PlanCacheBytes: *planCache,
		Remote: gen.RemoteOptions{
			Endpoint: *endpoint, AuthToken: authToken,
			Timeout: *remoteTimeout, Budget: *remoteBudget,
			MaxAttempts: *remoteAttempts, BackoffBase: *remoteBackoff, BackoffCap: *remoteBackoffCap,
			MaxInFlight:      *remoteInflight,
			BreakerThreshold: *breakerThreshold, BreakerCooldown: *breakerCooldown,
		},
		BatchSize: *batchSize, BatchLinger: *batchLinger,
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
	rejectNonCell(*experiment)
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
		base := []string{
			exe,
			"-seed", strconv.FormatInt(*seed, 10),
			"-corpus-files", strconv.Itoa(*corpusFiles),
			"-workers", strconv.Itoa(*workers),
			"-backend", *backend,
			"-plan-cache", strconv.FormatInt(*planCache, 10),
		}
		if *backend == "remote" {
			// Thread the transport config through to worker subprocesses.
			// The auth token travels by env var name — subprocesses inherit
			// the environment, so the secret itself stays out of argv.
			base = append(base,
				"-endpoint", *endpoint,
				"-remote-timeout", remoteTimeout.String(),
				"-remote-budget", remoteBudget.String(),
				"-remote-attempts", strconv.Itoa(*remoteAttempts),
				"-remote-backoff", remoteBackoff.String(),
				"-remote-backoff-cap", remoteBackoffCap.String(),
				"-remote-inflight", strconv.Itoa(*remoteInflight),
				"-breaker-threshold", strconv.Itoa(*breakerThreshold),
				"-breaker-cooldown", breakerCooldown.String(),
				"-batch", strconv.Itoa(*batchSize),
				"-batch-linger", batchLinger.String(),
			)
			if *authEnv != "" {
				base = append(base, "-auth-env", *authEnv)
			}
		}
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
		Seed:           *seed,
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
	renderExperiments(harness.FromResults(res.Set, sweep), *experiment)
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

// rejectNonCell exits 2 unless the experiment is cell-based ("all"
// expands to every cell-based artifact) — only those shard.
func rejectNonCell(experiment string) {
	if experiment == "all" {
		return
	}
	for _, e := range harness.CellExperiments() {
		if e == experiment {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "vgen-coord sweeps cell-based artifacts %v, not %q\n",
		harness.CellExperiments(), experiment)
	os.Exit(2)
}

// renderExperiments prints the selected cell-based artifacts in the
// registry's fixed order, matching vgen-eval -merge output byte for byte.
func renderExperiments(h *harness.Harness, experiment string) {
	for _, r := range harness.Renderers() {
		if !r.Cell {
			continue
		}
		if experiment != "all" && experiment != r.Name {
			continue
		}
		fmt.Println(r.Render(h))
	}
}
