package eval

import (
	"testing"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// TestInternalSimErrorIsARunError: a simulator that panics internally
// yields an ordinary failed-run verdict (compiles, simulated, does not
// pass) instead of crashing the sweep, and its simulator is not pooled
// for reuse. The slot is seeded with a hand-built design whose process
// trips a runtime panic, since no candidate text should reach one.
func TestInternalSimErrorIsARunError(t *testing.T) {
	p := problems.ByNumber(6)
	completion := p.RefBody + "\n// internal-error probe\n"
	src := p.CompleteWith(problems.LevelHigh, Truncate(completion))

	top := &elab.Inst{Path: "tb"}
	body := &vlog.If{Cond: (*vlog.Ident)(nil), Then: &vlog.Null{}}
	d := &elab.Design{Top: top, Procs: []*elab.Proc{{Kind: elab.ProcInitial, Body: body, Scope: top}}}
	if _, err := sim.New(d, sim.Options{}).Run(); err == nil {
		t.Fatal("hand-built design ran clean")
	}

	// The seeded slot shares its key with the reference body's (Truncate
	// drops the probe comment): start from empty tiers, and empty them
	// afterwards or later tests would evaluate the reference against the
	// broken design.
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	sl := &designSlot{d: d}
	if got := tiers.Load().designs.Add(designKey{tb: p.Testbench, src: src}, sl, int64(len(src))+designSlotCost); got != sl {
		t.Fatal("slot was already built")
	}
	for i := 0; i < 3; i++ {
		got := Evaluate(p, problems.LevelHigh, completion)
		if want := (Outcome{Compiles: true, Simulated: true}); got != want {
			t.Fatalf("run %d: outcome %+v, want %+v", i, got, want)
		}
		if s := sl.pool.Get(); s != nil {
			t.Fatalf("run %d: the simulator that panicked went back to the pool", i)
		}
	}
}
