package problems

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("problem count = %d, want 17", len(all))
	}
	for i, p := range all {
		if p.Number != i+1 {
			t.Errorf("problem %d has number %d", i+1, p.Number)
		}
		if p.ModuleName == "" || p.Slug == "" || p.Description == "" {
			t.Errorf("problem %d missing metadata", p.Number)
		}
	}
	if n := len(ByDifficulty(Basic)); n != 4 {
		t.Errorf("basic count = %d, want 4", n)
	}
	if n := len(ByDifficulty(Intermediate)); n != 8 {
		t.Errorf("intermediate count = %d, want 8", n)
	}
	if n := len(ByDifficulty(Advanced)); n != 5 {
		t.Errorf("advanced count = %d, want 5", n)
	}
}

func TestByNumber(t *testing.T) {
	if ByNumber(0) != nil || ByNumber(18) != nil {
		t.Error("out-of-range ByNumber should be nil")
	}
	if p := ByNumber(17); p == nil || p.Slug != "abro" {
		t.Errorf("ByNumber(17) = %+v", p)
	}
}

// TestPromptLevelsAreMonotone: higher levels add detail, and only
// detail. Each prompt is longer than the one below it and has the same
// tokens: what a level adds is comment text. The verdict memo shares a
// completion's verdict across the levels of one token signature, so a
// prompt that changed a token would cost that sharing.
func TestPromptLevelsAreMonotone(t *testing.T) {
	for _, p := range All() {
		l := p.Prompt(LevelLow)
		m := p.Prompt(LevelMedium)
		h := p.Prompt(LevelHigh)
		if !(len(l) < len(m) && len(m) < len(h)) {
			t.Errorf("problem %d prompt lengths not increasing: %d %d %d",
				p.Number, len(l), len(m), len(h))
		}
		for _, pr := range []string{l, m, h} {
			if !strings.Contains(pr, "module "+p.ModuleName) {
				t.Errorf("problem %d prompt missing module header", p.Number)
			}
		}
		want := vlog.LexPrefix(l).Signature()
		if want == "" {
			t.Errorf("problem %d: the L prompt cannot be split from its completion", p.Number)
			continue
		}
		for _, lvl := range []Level{LevelMedium, LevelHigh} {
			if vlog.LexPrefix(p.Prompt(lvl)).Signature() != want {
				t.Errorf("problem %d: the %s prompt's tokens differ from the L prompt's, so the two fall in different prompt classes; a level may add only comments",
					p.Number, lvl)
			}
		}
	}
}

func TestEveryPromptPlusRefBodyCompiles(t *testing.T) {
	for _, p := range All() {
		for _, lvl := range Levels {
			src := p.CompleteWith(lvl, p.RefBody)
			f, err := vlog.Parse(src)
			if err != nil {
				t.Errorf("problem %d level %s: parse: %v", p.Number, lvl, err)
				continue
			}
			if err := elab.CompileCheck(f); err != nil {
				t.Errorf("problem %d level %s: compile: %v", p.Number, lvl, err)
			}
		}
	}
}

func TestReferenceSolutionsPassTestbenches(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Slug, func(t *testing.T) {
			src := p.ReferenceSource() + "\n" + p.Testbench
			f, err := vlog.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			d, err := elab.Elaborate(f, "tb", elab.Options{})
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			res, err := sim.New(d, sim.Options{}).Run()
			if err != nil {
				t.Fatalf("simulate: %v\noutput:\n%s", err, res.Output)
			}
			if !PassVerdict(res.Output) {
				t.Fatalf("reference failed its own test bench:\n%s", res.Output)
			}
		})
	}
}

func TestTestbenchCatchesBrokenDUT(t *testing.T) {
	// sanity: an empty (all-x) implementation must FAIL every test bench
	for _, p := range All() {
		p := p
		t.Run(p.Slug, func(t *testing.T) {
			stub := p.Prompt(LevelLow) + "endmodule\n"
			src := stub + "\n" + p.Testbench
			f, err := vlog.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			d, err := elab.Elaborate(f, "tb", elab.Options{})
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			res, _ := sim.New(d, sim.Options{}).Run()
			if PassVerdict(res.Output) {
				t.Fatalf("stub DUT passed test bench:\n%s", res.Output)
			}
		})
	}
}

func TestPassVerdict(t *testing.T) {
	if !PassVerdict("x\nRESULT: PASS\n") {
		t.Error("pass not detected")
	}
	if PassVerdict("RESULT: FAIL\n") {
		t.Error("fail treated as pass")
	}
	if PassVerdict("nothing") {
		t.Error("no verdict treated as pass")
	}
	if PassVerdict("RESULT: PASS\nRESULT: FAIL") {
		t.Error("mixed verdict treated as pass")
	}
}
