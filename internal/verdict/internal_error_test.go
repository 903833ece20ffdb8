package verdict

import (
	"testing"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// TestInternalSimErrorIsARunError: a simulator that panics internally
// yields an ordinary failed-run verdict (compiles, simulated, does not
// pass) instead of crashing the sweep, and the verdict memo keeps that
// verdict like any other, so the broken design runs once. The memo is
// seeded with an unsimulated slot holding a hand-built design whose
// process trips a runtime panic, since no candidate text should reach
// one.
func TestInternalSimErrorIsARunError(t *testing.T) {
	p := problems.ByNumber(6)
	completion := p.RefBody + "\n// internal-error probe\n"

	top := &elab.Inst{Path: "tb"}
	body := &vlog.If{Cond: (*vlog.Ident)(nil), Then: &vlog.Null{}}
	d := &elab.Design{Top: top, Procs: []*elab.Proc{{Kind: elab.ProcInitial, Body: body, Scope: top}}}
	if _, err := sim.New(d, sim.Options{}).Run(); err == nil {
		t.Fatal("hand-built design ran clean")
	}

	// The seeded slot shares its key with the reference body's (Truncate
	// drops the probe comment): start from empty tiers, and empty them
	// afterwards or later tests would get the broken design's verdict for
	// the reference.
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	sl := &verdictSlot{d: d}
	k := verdictKey{p: p, level: problems.LevelHigh, completion: Truncate(completion)}
	if got := memo.Load().Add(k, sl, k.cost()); got != sl {
		t.Fatal("slot was already built")
	}
	before := SharedStats()
	runs := 0
	for i := 0; i < 3; i++ {
		got, res := evaluateShared(p, problems.LevelHigh, completion)
		if want := (Outcome{Compiles: true, Simulated: true}); got != want {
			t.Fatalf("evaluation %d: outcome %+v, want %+v", i, got, want)
		}
		if res != nil {
			runs++
		}
		if sl.d != nil {
			t.Fatalf("evaluation %d: the slot still holds its design", i)
		}
	}
	if runs != 1 {
		t.Errorf("the broken design ran %d times, want 1", runs)
	}
	after := SharedStats()
	if hits := after.DesignHits - before.DesignHits; hits != 3 {
		t.Errorf("%d memo hits, want 3", hits)
	}
	if after.Designs != before.Designs {
		t.Errorf("memo entries %d -> %d: the seeded slot was replaced", before.Designs, after.Designs)
	}
}
