package core

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/remote"
)

// parseShared binds the shared flags on a fresh flag set, parses args and
// resolves them.
func parseShared(args []string) (Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	return f.Resolve()
}

// randomConfig draws a Config with a non-zero value in every field the
// shared flags bind, in a shape Resolve produces: a remote backend (it is
// the one that reads every remote field) or a replay backend (the one
// that reads the recording), and a sweep that is either plain or -quick.
// The token lives in the environment variable cfg.AuthEnv names.
func randomConfig(t *testing.T, rng *rand.Rand) Config {
	dur := func() time.Duration { return time.Duration(1+rng.Intn(1e6)) * time.Microsecond }
	cfg := Config{
		Seed:        rng.Int63n(1<<40) - 1<<39 | 1,
		CorpusFiles: 1 + rng.Intn(500),
		Workers:     1 + rng.Intn(64),
		Backend:     "remote",
		AuthEnv:     fmt.Sprintf("VGEN_FLAGS_TEST_TOKEN_%d", rng.Intn(1000)),
		BatchSize:   1 + rng.Intn(64),
		Remote: remote.Options{
			Endpoint:  fmt.Sprintf("http://127.0.0.1:%d/v%d", 1024+rng.Intn(60000), rng.Intn(9)),
			AuthToken: fmt.Sprintf("secret-%x", rng.Uint64()),
			Timeout:   dur(),
			Budget:    dur(),
		},
		Sweep: eval.SweepOptions{N: 1 + rng.Intn(30)},
	}
	if rng.Intn(2) == 0 {
		cfg.Backend = "replay"
		cfg.Replay = fmt.Sprintf("rec/%x.jsonl", rng.Uint64())
		cfg.Remote.Endpoint = ""
	}
	if rng.Intn(2) == 0 {
		cfg.Sweep = eval.SweepOptions{N: 1 + rng.Intn(quickMaxN), Temperatures: []float64{0.1}}
	}
	t.Setenv(cfg.AuthEnv, cfg.Remote.AuthToken)
	return cfg
}

// TestArgsRoundTrip pins Args as Resolve's inverse: a worker that parses
// and resolves Args(cfg) gets cfg back in every field the shared flags
// carry, and the token itself never appears in the argv.
func TestArgsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		cfg := randomConfig(t, rng)
		args := Args(cfg)
		for _, a := range args {
			if strings.Contains(a, cfg.Remote.AuthToken) {
				t.Fatalf("config %d: argv carries the token: %q", i, a)
			}
		}
		got, err := parseShared(args)
		if err != nil {
			t.Fatalf("config %d: %v (argv %q)", i, err, args)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Fatalf("config %d: round trip drifted\n got %+v\nwant %+v\nargv %q", i, got, cfg, args)
		}
	}

	// The in-process default: a family backend with nothing remote set
	// round-trips too, though Args still emits every flag.
	cfg, err := parseShared(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := parseShared(Args(cfg)); err != nil || !reflect.DeepEqual(got, cfg) {
		t.Fatalf("default config round trip: got %+v (%v), want %+v", got, err, cfg)
	}
	if n := len(Args(cfg)); n != 12 {
		t.Errorf("Args emits %d flags, want all 12 shared ones", n)
	}
}

// TestResolve pins the resolve step's derived values and its usage
// errors.
func TestResolve(t *testing.T) {
	t.Setenv("VGEN_FLAGS_TEST_SET", "tok")
	t.Setenv("VGEN_FLAGS_TEST_EMPTY", "")
	for _, tc := range []struct {
		args    []string
		backend string
		sweep   eval.SweepOptions
		err     string
	}{
		{args: nil, backend: "family", sweep: eval.SweepOptions{N: 10}},
		{args: []string{"-quick"}, backend: "family", sweep: eval.SweepOptions{N: 6, Temperatures: []float64{0.1}}},
		{args: []string{"-quick", "-n", "4"}, backend: "family", sweep: eval.SweepOptions{N: 4, Temperatures: []float64{0.1}}},
		{args: []string{"-endpoint", "http://h"}, backend: "remote", sweep: eval.SweepOptions{N: 10}},
		{args: []string{"-backend", "remote", "-endpoint", "http://h", "-auth-env", "VGEN_FLAGS_TEST_SET"}, backend: "remote", sweep: eval.SweepOptions{N: 10}},
		{args: []string{"-backend", "mutant", "-endpoint", "http://h"}, err: "-endpoint conflicts with -backend mutant"},
		{args: []string{"-backend", "remote"}, err: "-backend remote needs -endpoint"},
		{args: []string{"-replay", "r.jsonl"}, backend: "replay", sweep: eval.SweepOptions{N: 10}},
		{args: []string{"-backend", "replay", "-replay", "r.jsonl"}, backend: "replay", sweep: eval.SweepOptions{N: 10}},
		{args: []string{"-backend", "mutant", "-replay", "r.jsonl"}, err: "-replay conflicts with -backend mutant"},
		{args: []string{"-backend", "replay"}, err: "-backend replay needs -replay"},
		{args: []string{"-replay", "r.jsonl", "-endpoint", "http://h"}, err: "-endpoint conflicts with -backend replay"},
		{args: []string{"-backend", "list"}, backend: "list", sweep: eval.SweepOptions{N: 10}},
		{args: []string{"-backend", "bogus"}, err: `unknown backend "bogus" (have [family mutant remote replay])`},
		{args: []string{"-endpoint", "http://h", "-auth-env", "VGEN_FLAGS_TEST_EMPTY"}, err: "environment variable VGEN_FLAGS_TEST_EMPTY is empty or unset"},
		{args: []string{"-endpoint", "http://h", "-auth-env", "VGEN_FLAGS_TEST_UNSET"}, err: "environment variable VGEN_FLAGS_TEST_UNSET is empty or unset"},
	} {
		cfg, err := parseShared(tc.args)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if cfg.Backend != tc.backend || !reflect.DeepEqual(cfg.Sweep, tc.sweep) {
			t.Errorf("%q: backend %q sweep %+v, want %q %+v", tc.args, cfg.Backend, cfg.Sweep, tc.backend, tc.sweep)
		}
		if cfg.AuthEnv != "" && cfg.Remote.AuthToken != "tok" {
			t.Errorf("%q: token %q not read from the environment", tc.args, cfg.Remote.AuthToken)
		}
	}
}

// TestResolveBackendFlags pins the backend-only flag set vgen-serve
// binds: the four selection flags and nothing of the sweep's, under the
// same implication and conflict rules as the full set.
func TestResolveBackendFlags(t *testing.T) {
	var names []string
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	BindBackendFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"backend", "corpus-files", "replay", "seed"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BindBackendFlags declares %q, want %q", names, want)
	}
	for _, tc := range []struct {
		args         []string
		backend, err string
	}{
		{args: []string{"-replay", "r.jsonl"}, backend: "replay"},
		{args: []string{"-backend", "list"}, backend: "list"},
		{args: []string{"-backend", "mutant", "-replay", "r.jsonl"}, err: "-replay conflicts with -backend mutant"},
		{args: []string{"-backend", "bogus"}, err: `unknown backend "bogus"`},
		{args: []string{"-backend", "remote"}, err: "-backend remote would chain the proxy onto itself"},
	} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		f := BindBackendFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		cfg, err := f.Resolve()
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.err)
			}
		case err != nil || cfg.Backend != tc.backend:
			t.Errorf("%q: backend %q (%v), want %q", tc.args, cfg.Backend, err, tc.backend)
		}
	}
}
