package core

// The sweep and backend flags vgen-eval and vgen-coord share, declared
// once. BindFlags puts them on a command's flag set, Resolve turns the
// parsed values into a Config, and Args is the inverse: the argv that
// makes a worker subprocess resolve the same Config. Mode flags
// (-experiment, -shards, -record, supervision knobs, ...) stay in their
// commands.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/eval"
)

// quickTemperatures is the -quick sweep: t=0.1 only, which preserves the
// best-temperature table values (best is t=0.1 by construction and in the
// paper), with n capped at quickMaxN.
var quickTemperatures = []float64{0.1}

const quickMaxN = 6

// Flags holds the shared flags' parsed values until Resolve.
type Flags struct {
	cfg   Config
	n     int
	quick bool
}

// BindFlags declares the shared sweep and backend flags on fs. Call
// Resolve after fs.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c, r := &f.cfg, &f.cfg.Remote
	fs.Int64Var(&c.Seed, "seed", 1, "determinism seed for corpus, models and sampling")
	fs.IntVar(&f.n, "n", 10, "completions per prompt")
	fs.BoolVar(&f.quick, "quick", false, "sweep only t=0.1 with n <= 6 (fast; matches best-t tables)")
	fs.IntVar(&c.CorpusFiles, "corpus-files", 0, "synthetic corpus size (0 = default)")
	fs.IntVar(&c.Workers, "workers", 0, "evaluation worker pool width per process (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	fs.StringVar(&c.Backend, "backend", "family", "generation backend by registered name (vgen-eval -backend list prints the registry)")
	fs.StringVar(&r.Endpoint, "endpoint", "", "remote backend: completion service URL, e.g. http://127.0.0.1:8473 (implies -backend remote)")
	fs.StringVar(&c.AuthEnv, "auth-env", "", "remote backend: environment variable holding the bearer token (the token never appears in argv)")
	fs.DurationVar(&r.Timeout, "remote-timeout", 0, "remote backend: per-attempt HTTP deadline (0 = 30s)")
	fs.DurationVar(&r.Budget, "remote-budget", 0, "remote backend: deadline shared by every request of one process's sweep (0 = none)")
	fs.IntVar(&r.MaxAttempts, "remote-attempts", 0, "remote backend: per-request attempt budget, composing under coord's shard retries (0 = 4)")
	fs.DurationVar(&r.BackoffBase, "remote-backoff", 0, "remote backend: base retry backoff, doubling per attempt (0 = 50ms)")
	fs.DurationVar(&r.BackoffCap, "remote-backoff-cap", 0, "remote backend: retry backoff cap (0 = 2s)")
	fs.IntVar(&r.MaxInFlight, "remote-inflight", 0, "remote backend: max concurrent HTTP requests per process (0 = 16)")
	fs.IntVar(&r.BreakerThreshold, "breaker-threshold", 0, "remote backend: consecutive failures that trip the circuit breaker (0 = 5)")
	fs.DurationVar(&r.BreakerCooldown, "breaker-cooldown", 0, "remote backend: open-breaker cooldown before a half-open probe (0 = 1s)")
	fs.IntVar(&c.BatchSize, "batch", 0, "batch-capable backends: work items per CompleteBatch call (0 = 16)")
	return f
}

// Resolve builds the Config the parsed flags describe: -quick narrows the
// sweep, -endpoint implies -backend remote, a remote backend needs an
// endpoint, and -auth-env is looked up in the environment. Every error is
// a usage error.
func (f *Flags) Resolve() (Config, error) {
	cfg := f.cfg
	cfg.Sweep = eval.SweepOptions{N: f.n}
	if f.quick {
		cfg.Sweep = eval.SweepOptions{N: min(f.n, quickMaxN), Temperatures: slices.Clone(quickTemperatures)}
	}
	if cfg.Remote.Endpoint != "" {
		switch cfg.Backend {
		case "family": // default value: -endpoint alone implies the remote backend
			cfg.Backend = "remote"
		case "remote":
		default:
			return Config{}, fmt.Errorf("-endpoint conflicts with -backend %s (the endpoint would be ignored)", cfg.Backend)
		}
	}
	if cfg.Backend == "remote" && cfg.Remote.Endpoint == "" {
		return Config{}, errors.New("-backend remote needs -endpoint (the vgen-serve URL)")
	}
	if cfg.AuthEnv != "" {
		cfg.Remote.AuthToken = os.Getenv(cfg.AuthEnv)
		if cfg.Remote.AuthToken == "" {
			return Config{}, fmt.Errorf("-auth-env: environment variable %s is empty or unset", cfg.AuthEnv)
		}
	}
	return cfg, nil
}

// Args is Resolve's inverse: one -name=value argument for every shared
// flag, so a subprocess that binds and resolves them gets back cfg's
// seed, sweep, scale, worker width, backend, remote transport and batch
// settings. The token travels by name only (-auth-env): the subprocess
// inherits the environment and reads it there, so it never appears in
// argv. cfg.Sweep is expected in a shape Resolve produces.
func Args(cfg Config) []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	f := BindFlags(fs)
	f.cfg = cfg
	f.n = cfg.Sweep.N
	f.quick = slices.Equal(cfg.Sweep.Temperatures, quickTemperatures)
	var args []string
	fs.VisitAll(func(fl *flag.Flag) {
		args = append(args, "-"+fl.Name+"="+fl.Value.String())
	})
	return args
}
