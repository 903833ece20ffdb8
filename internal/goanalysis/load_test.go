package goanalysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestMatchPatterns(t *testing.T) {
	cases := []struct {
		rel      string
		patterns []string
		want     bool
	}{
		{"internal/eval", []string{"./..."}, true},
		{"internal/eval", []string{"..."}, true},
		{"internal/eval", []string{"./internal/..."}, true},
		{"internal/eval", []string{"internal/..."}, true},
		{"internal/eval", []string{"./internal/eval"}, true},
		{"internal/evaluator", []string{"./internal/eval"}, false},
		{"internal/evaluator", []string{"./internal/eval/..."}, false},
		{"cmd/vgen-check", []string{"./internal/..."}, false},
		{"internal", []string{"internal/..."}, true},
	}
	for _, c := range cases {
		if got := matchPatterns(c.rel, c.patterns); got != c.want {
			t.Errorf("matchPatterns(%q, %v) = %v, want %v", c.rel, c.patterns, got, c.want)
		}
	}
}

func TestLoadModuleBuildConstraints(t *testing.T) {
	// coord carries proc_unix.go/proc_other.go behind mutually exclusive
	// build tags; loading must pick exactly the platform's file or the
	// package would double-declare and fail the type check.
	var coord *Package
	for _, pkg := range sharedRepo(t).Pkgs {
		if pkg.Path == "repro/internal/coord" {
			coord = pkg
		}
	}
	if coord == nil || coord.Name != "coord" {
		t.Fatalf("the module load has no coord package: %+v", coord)
	}
	var procs []string
	for _, f := range coord.Files {
		if name := filepath.Base(sharedRepo(t).Fset.File(f.Pos()).Name()); strings.HasPrefix(name, "proc_") {
			procs = append(procs, name)
		}
	}
	if len(procs) != 1 {
		t.Errorf("coord loaded with %v, want exactly one of proc_unix.go/proc_other.go", procs)
	}
}
