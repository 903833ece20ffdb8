// vgen-check runs the project's six invariant-enforcing static analyzers
// (internal/goanalysis) over the module: map-order determinism, ambient
// nondeterminism, durable-write discipline, context threading, the
// single-merge-path rule, and reach (every function, method and exported
// field has a shipped use; tests do not count). It exits 0 only on a
// clean tree; findings and the suppression inventory print in
// deterministic order so CI diffs are stable. The whole tree is always
// loaded, so reach sees every caller whatever packages are named.
//
// Usage:
//
//	vgen-check [packages]      # default ./...
//	vgen-check -list           # registered analyzers, one per line
//	vgen-check -json [pkgs]    # machine-readable findings + inventory
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/goanalysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and suppression inventory as JSON")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	flag.Parse()

	analyzers := goanalysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s\t%s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, prefix, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgen-check: %v\n", err)
		os.Exit(2)
	}
	for i, p := range patterns {
		patterns[i] = rebase(prefix, p)
	}

	m, err := goanalysis.LoadModule(root, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgen-check: %v\n", err)
		os.Exit(2)
	}
	res := goanalysis.Analyze(m, analyzers)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "vgen-check: %v\n", err)
			os.Exit(2)
		}
	} else {
		res.Format(os.Stdout)
	}
	if !res.Clean() {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod
// and returns the root plus the working directory's root-relative prefix,
// so `vgen-check ./internal/...` works from any subdirectory.
func moduleRoot() (root, prefix string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			rel, err := filepath.Rel(d, dir)
			if err != nil || rel == "." {
				rel = ""
			}
			return d, filepath.ToSlash(rel), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// rebase prepends the working directory's module-relative prefix to a
// pattern typed relative to the working directory.
func rebase(prefix, pattern string) string {
	if prefix == "" {
		return pattern
	}
	p := filepath.ToSlash(pattern)
	if after, ok := cutDot(p); ok {
		if after == "" {
			return prefix
		}
		return prefix + "/" + after
	}
	return prefix + "/" + p
}

// cutDot strips a leading "." or "./" from a pattern.
func cutDot(p string) (string, bool) {
	switch {
	case p == ".":
		return "", true
	case len(p) >= 2 && p[:2] == "./":
		return p[2:], true
	}
	return p, false
}
