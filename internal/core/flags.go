package core

// The backend and sweep flags vgen-eval, vgen-coord and vgen-serve share,
// declared once. Resolve turns the parsed values into a Config, and Args
// is the inverse: the argv that makes a worker subprocess resolve the
// same Config. Mode flags (-experiment, -record, -addr, ...) stay in
// their commands.

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
	sweep bool // BindFlags bound the sweep flags, -endpoint among them
}

// BindBackendFlags declares the backend selection every command that
// builds a backend takes: -seed, -corpus-files, -backend and -replay.
// Call Resolve after fs.Parse.
func BindBackendFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c := &f.cfg
	fs.Int64Var(&c.Seed, "seed", 1, "determinism seed for corpus, models and sampling")
	fs.IntVar(&c.CorpusFiles, "corpus-files", 0, "synthetic corpus size (0 = default)")
	fs.StringVar(&c.Backend, "backend", "family", "generation backend by name in core's backend table: family, mutant, remote or replay (-backend list prints the table)")
	fs.StringVar(&c.Replay, "replay", "", "JSONL recording served by the replay backend (implies -backend replay)")
	return f
}

// BindFlags declares the backend selection plus the sweep flags
// vgen-eval and vgen-coord share. Call Resolve after fs.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := BindBackendFlags(fs)
	f.sweep = true
	c, r := &f.cfg, &f.cfg.Remote
	fs.IntVar(&f.n, "n", 10, "completions per prompt")
	fs.BoolVar(&f.quick, "quick", false, "sweep only t=0.1 with n <= 6 (fast; matches best-t tables)")
	fs.IntVar(&c.Workers, "workers", 0, "evaluation worker pool width per process (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	fs.StringVar(&r.Endpoint, "endpoint", "", "remote backend: completion service URL, e.g. http://127.0.0.1:8473 (implies -backend remote)")
	fs.StringVar(&c.AuthEnv, "auth-env", "", "remote backend: environment variable holding the bearer token (the token never appears in argv)")
	fs.DurationVar(&r.Timeout, "remote-timeout", 0, "remote backend: per-attempt HTTP deadline (0 = 30s)")
	fs.DurationVar(&r.Budget, "remote-budget", 0, "remote backend: deadline shared by every request of one process's sweep (0 = none)")
	fs.IntVar(&c.BatchSize, "batch", 0, "batch-capable backends: work items per CompleteBatch call (0 = 16)")
	return f
}

// Resolve builds the Config the parsed flags describe: -quick narrows the
// sweep, the backend must be a row of the backend table (or "list"),
// -replay implies -backend replay and -endpoint -backend remote, each of
// those backends needs its flag, and -auth-env is looked up in the
// environment. Every error is a usage error.
func (f *Flags) Resolve() (Config, error) {
	cfg := f.cfg
	cfg.Sweep = eval.SweepOptions{N: f.n}
	if f.quick {
		cfg.Sweep = eval.SweepOptions{N: min(f.n, quickMaxN), Temperatures: slices.Clone(quickTemperatures)}
	}
	switch {
	case cfg.Backend != "list" && !slices.Contains(BackendNames(), cfg.Backend):
		return Config{}, fmt.Errorf("unknown backend %q (have %v)", cfg.Backend, BackendNames())
	case cfg.Backend == "remote" && !f.sweep:
		return Config{}, errors.New("-backend remote would chain the proxy onto itself; serve the real backend instead")
	}
	for _, imp := range []struct{ flag, value, backend string }{
		{"-replay", cfg.Replay, "replay"},
		{"-endpoint", cfg.Remote.Endpoint, "remote"},
	} {
		switch {
		case imp.value == "" && cfg.Backend == imp.backend:
			return Config{}, fmt.Errorf("-backend %s needs %s", imp.backend, imp.flag)
		case imp.value == "" || cfg.Backend == imp.backend:
		case cfg.Backend == "family": // default value: the flag alone implies its backend
			cfg.Backend = imp.backend
		default:
			return Config{}, fmt.Errorf("%s conflicts with -backend %s (it would be ignored)", imp.flag, cfg.Backend)
		}
	}
	if cfg.AuthEnv != "" {
		cfg.Remote.AuthToken = os.Getenv(cfg.AuthEnv)
		if cfg.Remote.AuthToken == "" {
			return Config{}, fmt.Errorf("-auth-env: environment variable %s is empty or unset", cfg.AuthEnv)
		}
	}
	return cfg, nil
}

// Args is Resolve's inverse: one -name=value argument for every flag
// BindFlags declares, so a subprocess that binds and resolves them gets
// back cfg's seed, sweep, scale, worker width, backend, recording, remote
// transport and batch settings. The token travels by name only
// (-auth-env): the subprocess inherits the environment and reads it
// there, so it never appears in argv. cfg.Sweep is expected in a shape
// Resolve produces.
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
