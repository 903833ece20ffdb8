package sim

import (
	"sync"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Bytes     int64
	Entries   int
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	st := c.c.Stats()
	return PlanCacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evicted, Bytes: st.Bytes, Entries: st.Entries}
}

// sharedSrc exercises the runtime surfaces the plan cache must leave
// untouched: reg initializers, clocked and @* processes, a memory, signed
// arithmetic, $random (rng state), and hierarchical children.
const sharedSrc = `module sub(input clk, input [3:0] a, output reg [3:0] q);
  always @(posedge clk) q <= a + 1;
endmodule
module top;
  reg clk = 0;
  reg [3:0] a = 0;
  reg signed [7:0] acc = 0;
  reg [7:0] m [0:3];
  wire [3:0] q;
  reg [3:0] comb;
  sub u(.clk(clk), .a(a), .q(q));
  always #5 clk = ~clk;
  always @* comb = a ^ q;
  always @(posedge clk) begin
    a <= a + 1;
    acc <= acc - $signed({4'b0, q});
    m[a[1:0]] <= {4'b0, a} + 8'd7;
  end
  initial begin
    #43;
    $display("a=%d q=%d comb=%b acc=%d m0=%d m3=%d r=%d",
             a, q, comb, acc, m[0], m[3], $random % 16);
    $finish;
  end
endmodule
`

func elabTop(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := elab.Elaborate(f, top, elab.Options{})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

func mustRun(t *testing.T, s *Simulator) Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v (output so far: %q)", err, res.Output)
	}
	return res
}

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Output != want.Output {
		t.Errorf("%s: output diverged:\ngot:  %q\nwant: %q", label, got.Output, want.Output)
	}
	if got.Time != want.Time || got.Steps != want.Steps || got.Finished != want.Finished {
		t.Errorf("%s: metadata diverged: got %+v, want %+v", label, got, want)
	}
}

// TestSharedPlansMatchUnshared: the same design simulated with and
// without a shared plan cache produces identical results, and the second
// cached simulator actually hits the cache.
func TestSharedPlansMatchUnshared(t *testing.T) {
	d := elabTop(t, sharedSrc, "top")
	want := mustRun(t, New(d, Options{}))
	cache := NewPlanCache(0)
	sameResult(t, "first shared run", mustRun(t, New(d, Options{Plans: cache})), want)
	after1 := cache.Stats()
	if after1.Misses == 0 || after1.Entries == 0 {
		t.Fatalf("first cached run compiled nothing: %+v", after1)
	}
	sameResult(t, "second shared run", mustRun(t, New(d, Options{Plans: cache})), want)
	after2 := cache.Stats()
	if after2.Hits <= after1.Hits {
		t.Errorf("second simulator hit nothing: %+v -> %+v", after1, after2)
	}
	if after2.Misses != after1.Misses {
		t.Errorf("second simulator recompiled %d plans despite a warm cache", after2.Misses-after1.Misses)
	}
}

// TestPlanCacheEvictionRecomputes squeezes the cache so hard every insert
// evicts all but the newest entry: output must stay identical (a re-miss recompiles an equivalent
// immutable plan) and the eviction counter must move.
func TestPlanCacheEvictionRecomputes(t *testing.T) {
	d := elabTop(t, sharedSrc, "top")
	want := mustRun(t, New(d, Options{}))
	cache := NewPlanCache(1) // one accounted byte: everything evicts
	for i := 0; i < 3; i++ {
		sameResult(t, "starved cache run", mustRun(t, New(d, Options{Plans: cache})), want)
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("1-byte budget evicted nothing: %+v", st)
	}
	if st.Entries > 1 {
		t.Errorf("starved cache retains %d entries, want only the newest: %+v", st.Entries, st)
	}
}

// TestPlanCacheConcurrentSimulators runs many simulators of one design
// against one cache; under -race this pins the lock discipline, and every
// result must match the uncached baseline bit for bit.
func TestPlanCacheConcurrentSimulators(t *testing.T) {
	d := elabTop(t, sharedSrc, "top")
	want := mustRun(t, New(d, Options{}))
	cache := NewPlanCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := New(d, Options{Plans: cache}).Run()
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
				if res.Output != want.Output || res.Steps != want.Steps {
					t.Errorf("concurrent cached run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}
