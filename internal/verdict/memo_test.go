package verdict

import (
	"testing"

	"repro/internal/problems"
)

// TestMemoHitDoesNotSimulate: a completion that differs from the
// reference only after endmodule truncates to the reference's source, so
// after one evaluation every further one is a verdict-memo hit. A hit
// costs the truncation and the key, a few allocations, where a
// simulation costs thousands.
func TestMemoHitDoesNotSimulate(t *testing.T) {
	SetPlanCacheBytes(0)
	t.Cleanup(func() { SetPlanCacheBytes(0) })
	p := problems.ByNumber(6)
	babble := p.RefBody + "\n// memo-hit babble\nmodule extra; endmodule\n"
	if Truncate(babble) != Truncate(p.RefBody) {
		t.Fatal("the babble survived truncation")
	}
	want := Outcome{Compiles: true, Simulated: true, Passes: true}
	if got := Evaluate(p, problems.LevelHigh, babble); got != want {
		t.Fatalf("first evaluation: %+v, want %+v", got, want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := Evaluate(p, problems.LevelHigh, babble); got != want {
			t.Fatalf("repeat evaluation: %+v, want %+v", got, want)
		}
	})
	if allocs > 4 {
		t.Errorf("a memo hit allocated %.0f times, want at most 4", allocs)
	}
}
