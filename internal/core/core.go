// Package core is the top-level facade of the VGen-Go evaluation
// framework — the paper's primary contribution assembled as one API. It
// wires the corpus pipeline, the generation-backend layer, the
// 17-problem benchmark, the compile/simulate pipeline, and the
// table/figure harness behind a single entry point, so tools and
// examples need one import.
package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/remote"
	"repro/internal/store"
	"repro/internal/verdict"
)

// Config selects the framework scale, determinism seed, and generation
// backend.
type Config struct {
	Seed        int64
	CorpusFiles int // synthetic GitHub corpus size; 0 = default
	Sweep       eval.SweepOptions
	Workers     int // evaluation pool width; 0 = GOMAXPROCS, 1 = serial

	// Backend selects the generation backend by its name in the backend
	// table (family, mutant, remote, replay; see BackendNames); "" means
	// "family", the simulated line-up.
	Backend string

	// Record captures every produced sample to this JSONL file; the
	// resulting recording is what the replay backend serves. Close the
	// framework to flush it.
	Record string

	// Replay is the JSONL recording served by the replay backend; read
	// when Backend is "replay".
	Replay string

	// Remote configures the remote backend's HTTP transport (endpoint,
	// auth, per-attempt timeout, sweep budget); read when Backend is "remote".
	// A zero Remote.Seed inherits Seed, so transport retry jitter is
	// reproducible from the sweep seed alone.
	Remote remote.Options

	// AuthEnv names the environment variable Remote.AuthToken was read
	// from (see Flags.Resolve). Args passes the name to worker
	// subprocesses, never the token.
	AuthEnv string

	// BatchSize is the evaluation engine's CompleteBatch width when the
	// backend implements gen.BatchBackend; zero means the engine default.
	// Batch composition never changes results.
	BatchSize int

	// StoreDir attaches a persistent result store rooted at this
	// directory: evaluated cells persist there keyed by sweep identity
	// (backend tag + seed), warm cells are served from disk instead of
	// re-evaluated, and an interrupted sweep resumes from the last durable
	// cell. "" runs without a store. The store assumes one writing process
	// per directory; give concurrent worker processes their own runs and
	// merge results instead.
	StoreDir string
}

// Framework is a fully wired evaluation stack.
type Framework struct {
	Backend gen.Backend
	Runner  *eval.Runner
	Harness *harness.Harness

	// Family is the simulated-model substrate when the backend is the
	// family line-up (possibly wrapped by a recorder); nil otherwise.
	Family *model.Family

	// Store and StoreSource are the persistent result store and the
	// caching cell source over it; both nil unless Config.StoreDir is set.
	Store       *store.Store
	StoreSource *store.Source

	// source is the cell provider sweeps execute through: the StoreSource
	// when a store is attached, the bare Runner otherwise.
	source eval.PlanRunner

	cfg     Config
	recFile *os.File
	recBuf  *bufio.Writer
	rec     *gen.Recorder

	// backendTag is the unwrapped backend's Describe() — the sweep
	// identity shard files are validated and merged under. Captured
	// before any recorder wrapping: recording is observation-only, so a
	// recorded shard must merge cleanly with an unrecorded one.
	backendTag string
}

// New builds the framework: constructs the backend cfg.Backend names in
// the backend table (for the family backend that means running the corpus
// pipeline and training the tokenizer), optionally wraps it in a
// recorder, and wires the runner and harness around it.
func New(cfg Config) (*Framework, error) {
	fw := &Framework{cfg: cfg}
	b, err := fw.buildBackend()
	if err != nil {
		return nil, err
	}
	fw.Backend, fw.backendTag = b, b.Describe()
	if cfg.Record != "" {
		f, err := os.Create(cfg.Record)
		if err != nil {
			return nil, fmt.Errorf("core: record: %w", err)
		}
		fw.recFile = f
		// buffer the sink: Close flushes the recorder one JSONL line at a
		// time
		fw.recBuf = bufio.NewWriterSize(f, 1<<20)
		fw.rec = gen.NewRecorder(b, fw.recBuf)
		fw.Backend = fw.rec
	}
	runner := eval.NewRunner(fw.Backend, cfg.Seed)
	runner.Workers = cfg.Workers
	runner.BatchSize = cfg.BatchSize
	fw.Runner = runner
	fw.source = runner
	fw.Harness = &harness.Harness{Runner: runner, Opts: cfg.Sweep, Seed: cfg.Seed, CorpusFiles: cfg.CorpusFiles}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			fw.Close()
			return nil, err
		}
		fw.Store = st
		fw.StoreSource = store.Cached(runner, st, fw.SweepIdentity())
		fw.source = fw.StoreSource
	}
	return fw, nil
}

// Render writes the artifacts experiment selects ("all" = every
// artifact) to w in registry order: the plain, unsharded run. Cell-based
// artifacts take the path every sharded, coordinated and stored run
// takes — the harness plans every cell they consume, the plan runs once
// through the framework's cell source (the store over the Runner when
// one is attached), and they render from the ResultSet. The other
// artifacts render live from f.Harness.
//
// A cell the backend failed to produce renders as zeros. It is listed
// both by Runner.Failures and by the returned set's Missing, so the
// caller can fail loudly after the output exists.
func (f *Framework) Render(ctx context.Context, w io.Writer, experiment string) (*eval.ResultSet, error) {
	sel, err := harness.Select(experiment, false)
	if err != nil {
		return nil, err
	}
	var cells []string
	for _, r := range sel {
		if r.Cell {
			cells = append(cells, r.Name)
		}
	}
	plan, err := f.Harness.PlanFor(cells)
	if err != nil {
		return nil, err
	}
	rs, err := f.source.RunPlanCtx(ctx, plan)
	if err != nil {
		return nil, err
	}
	return rs, harness.Print(w, experiment, harness.FromResults(rs, f.Harness.Opts), f.Harness)
}

// SweepIdentity is the identity this framework's cells persist under: the
// unwrapped backend tag (matching shard metadata) plus the runner seed.
func (f *Framework) SweepIdentity() store.Identity {
	return store.Identity{Backend: f.backendTag, Seed: f.cfg.Seed}
}

// Close flushes and closes the recording sink and the result store, if
// attached, reporting the first error. Safe to call on frameworks with
// neither, and idempotent.
func (f *Framework) Close() error {
	var err error
	if f.recFile != nil {
		err = f.rec.Flush()
		if ferr := f.recBuf.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.recFile.Close(); err == nil {
			err = cerr
		}
		f.recFile = nil
	}
	if f.Store != nil {
		if serr := f.Store.Close(); err == nil {
			err = serr
		}
		f.Store = nil
	}
	return err
}

// EvaluateCompletion runs the compile + functional pipeline on an
// arbitrary completion for one problem and prompt level. This is the
// entry point a downstream user points their own model's output at.
func (f *Framework) EvaluateCompletion(problemNumber int, level problems.Level, completion string) (verdict.Outcome, error) {
	p := problems.ByNumber(problemNumber)
	if p == nil {
		return verdict.Outcome{}, fmt.Errorf("core: no problem %d", problemNumber)
	}
	return verdict.Evaluate(p, level, completion), nil
}
