package goanalysis

// Driver-level proof obligations from the PR-7 issue: vgen-check over the
// real module is clean (zero findings, zero unexplained suppressions) and
// byte-deterministic across independent loads.

import (
	"bytes"
	"encoding/json"
	"testing"
)

// loadRepo loads the real module (two directories up from this package).
func loadRepo(t *testing.T) *Module {
	t.Helper()
	m, err := LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	return m
}

func TestRepoIsClean(t *testing.T) {
	res := Analyze(loadRepo(t), All())
	for _, f := range res.Findings {
		t.Errorf("finding on the shipped tree: %s", f)
	}
	for _, s := range res.Suppressions {
		if s.Reason == "" {
			t.Errorf("unexplained suppression at %s:%d", s.File, s.Line)
		}
		if !s.Used {
			t.Errorf("stale suppression at %s:%d (masks nothing)", s.File, s.Line)
		}
	}
	if len(res.Suppressions) == 0 {
		t.Error("expected the audited //vgencheck:ordered waivers in the inventory")
	}
}

func TestRepoAnalysisDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		res := Analyze(loadRepo(t), All())
		var text bytes.Buffer
		res.Format(&text)
		js, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return text.Bytes(), js
	}
	t1, j1 := render()
	t2, j2 := render()
	if !bytes.Equal(t1, t2) {
		t.Errorf("text report differs between two runs:\n--- run 1\n%s\n--- run 2\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("-json report differs between two runs:\n--- run 1\n%s\n--- run 2\n%s", j1, j2)
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	as := All()
	want := []string{"ctxflow", "durables", "floatmerge", "maporder", "nondet", "reach"}
	if len(as) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s (sorted order)", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Directive == "" {
			t.Errorf("%s: missing Doc or Directive", a.Name)
		}
	}
}
