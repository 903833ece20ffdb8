package core

import (
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/remote"
)

// backends is the backend table: every generation backend a caller can
// select by name (Config.Backend, the -backend flag), sorted by name. desc
// is what `-backend list` prints; it stands in for Describe() before any
// instance exists, since a replay backend, say, cannot be built just to
// be listed. build reads only the Config fields its backend needs and
// returns an error, not a panic, on unusable ones; the family row also
// sets fw.Family.
var backends = []struct {
	name, desc string
	build      func(fw *Framework) (gen.Backend, error)
}{
	{"family", "simulated n-gram model line-up (the paper's Table I rows)", func(fw *Framework) (gen.Backend, error) {
		fw.Family = model.NewFamily(model.Config{Seed: fw.cfg.Seed, CorpusFiles: fw.cfg.CorpusFiles})
		return gen.NewFamilyBackend(fw.Family), nil
	}},
	{"mutant", "AST near-miss / truncation generator (verdict-pipeline probe)", func(*Framework) (gen.Backend, error) {
		return gen.NewMutant(), nil
	}},
	{"remote", "JSON-over-HTTP proxy to a completion service (vgen-serve); retrying, circuit-broken, batch-capable", func(fw *Framework) (gen.Backend, error) {
		o := fw.cfg.Remote
		if o.Seed == 0 {
			o.Seed = fw.cfg.Seed
		}
		return remote.NewBackend(o)
	}},
	{"replay", "serves completions from a JSONL recording (-replay FILE)", func(fw *Framework) (gen.Backend, error) {
		return openReplay(fw.cfg.Replay)
	}},
}

// ListBackends writes the backend table as `-backend list` prints it: one
// "name<TAB>description" line per backend, sorted by name.
func ListBackends(w io.Writer) {
	for _, b := range backends {
		fmt.Fprintf(w, "%s\t%s\n", b.name, b.desc)
	}
}

// BackendNames lists the backend table's names, sorted.
func BackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.name
	}
	return names
}

// buildBackend builds the backend fw.cfg.Backend names in the table.
func (fw *Framework) buildBackend() (gen.Backend, error) {
	name := fw.cfg.Backend
	if name == "" {
		name = "family"
	}
	for _, row := range backends {
		if row.name == name {
			return row.build(fw)
		}
	}
	return nil, fmt.Errorf("core: unknown backend %q (have %v)", name, BackendNames())
}

// openReplay loads the recording the replay backend serves.
func openReplay(path string) (gen.Backend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: replay: %w", err)
	}
	defer f.Close()
	r, err := gen.NewReplay(f)
	if err != nil {
		return nil, fmt.Errorf("core: replay %s: %w", path, err)
	}
	return r, nil
}
