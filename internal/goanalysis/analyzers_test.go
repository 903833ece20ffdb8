package goanalysis

// Golden coverage for every analyzer: at least one firing, one negative,
// and one suppressed case each (the suppressed cases are pinned through
// the returned inventory, not just by the absence of a diagnostic).

import "testing"

func TestMaporderGolden(t *testing.T) {
	res := RunGolden(t, Maporder(), "maporder")
	s := SuppressionAt(t, res, "maporder/a.go", 96)
	if !s.Used || s.Directive != "ordered" || s.Reason == "" {
		t.Errorf("explained waiver not honored: %+v", s)
	}
	bare := SuppressionAt(t, res, "maporder/a.go", 107)
	if bare.Used || bare.Reason != "" {
		t.Errorf("bare directive must not suppress: %+v", bare)
	}
}

func TestNondetGolden(t *testing.T) {
	seams := map[string]string{"nondet.seam": "golden seam fixture"}
	res := RunGolden(t, Nondet(seams), "nondet")
	s := SuppressionAt(t, res, "nondet/a.go", 61)
	if !s.Used || s.Directive != "nondet" {
		t.Errorf("explained waiver not honored: %+v", s)
	}
}

func TestNondetSeamIsNarrow(t *testing.T) {
	// Without the custom seam entry, the seam() fixture must fire: the
	// allow-list admits exactly the configured functions, nothing else.
	res := analyze(goldenModule(t, "nondet"), []*Analyzer{Nondet(map[string]string{})}, false)
	found := false
	for _, f := range res.Findings {
		if f.File == "nondet/a.go" && f.Line == 68 {
			found = true
		}
	}
	if !found {
		t.Errorf("seam() did not fire with an empty seam map; findings: %v", res.Findings)
	}
}

func TestDurablesGolden(t *testing.T) {
	res := RunGolden(t, Durables(), "durables")
	s := SuppressionAt(t, res, "durables/a.go", 89)
	if !s.Used || s.Directive != "durables" {
		t.Errorf("explained waiver not honored: %+v", s)
	}
}

func TestCtxflowGolden(t *testing.T) {
	res := RunGolden(t, Ctxflow(), "ctxflow")
	s := SuppressionAt(t, res, "ctxflow/a.go", 46)
	if !s.Used || s.Directive != "ctxflow" {
		t.Errorf("explained waiver not honored: %+v", s)
	}
}

func TestFloatmergeGolden(t *testing.T) {
	// "eval" is analyzed too: its Add method accumulates into CellStats
	// fields with no want comments, pinning the blessed-path exemption.
	res := RunGolden(t, Floatmerge(), "floatmerge", "eval")
	s := SuppressionAt(t, res, "floatmerge/a.go", 43)
	if !s.Used || s.Directive != "floatmerge" {
		t.Errorf("explained waiver not honored: %+v", s)
	}
}

func TestReachGolden(t *testing.T) {
	res := RunGolden(t, Reach(), "reach", "reach/cmd")
	for _, line := range []int{55, 70} {
		s := SuppressionAt(t, res, "reach/a.go", line)
		if !s.Used || s.Directive != "oracle" {
			t.Errorf("explained waiver at line %d not honored: %+v", line, s)
		}
	}
}
