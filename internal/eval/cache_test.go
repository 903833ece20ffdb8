package eval

// Outcome-cache bounding tests: the 64-way sharded cache must hold its
// accounted size under the configured budget under churn, and eviction
// must be invisible in results — outcomes are pure, so an evicted and
// revisited completion recomputes to the identical verdict.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/problems"
)

// churnCompletions builds n distinct completions of roughly width bytes
// each — cheap to evaluate (none compile) but heavy enough to trip a
// small byte budget quickly.
func churnCompletions(n, width int) []string {
	out := make([]string, n)
	pad := make([]byte, width)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := range out {
		out[i] = fmt.Sprintf("// churn %d %s\n", i, pad)
	}
	return out
}

func TestOutcomeCacheBounded(t *testing.T) {
	const total = numShards * 2048 // ~2 KiB per shard: a handful of entries
	r := newRunner(gen.NewMutant(), 1, total)
	p := problems.ByNumber(1)

	for _, c := range churnCompletions(600, 300) {
		r.evaluate(p, problems.LevelHigh, c)
	}

	cs := r.CacheStats()
	if cs.Evicted == 0 {
		t.Fatalf("600 distinct ~300B completions against a %dB budget evicted nothing: %+v", total, cs)
	}
	if cs.Entries >= 600 {
		t.Fatalf("cache retained all %d entries despite the bound: %+v", cs.Entries, cs)
	}
	// Per-shard FIFO keeps each shard at or under budget except for the
	// single just-inserted entry it always retains.
	for i, sh := range r.shards {
		if st := sh.Stats(); st.Bytes > total/numShards && st.Entries > 1 {
			t.Fatalf("shard %d holds %d bytes in %d entries over its %d budget", i, st.Bytes, st.Entries, total/numShards)
		}
	}
}

func TestOutcomeCacheEvictionPreservesResults(t *testing.T) {
	p := problems.ByNumber(2)
	cs := churnCompletions(200, 400)

	bounded := newRunner(gen.NewMutant(), 1, numShards*1024)
	unbounded := newRunner(gen.NewMutant(), 1, -1)

	// First pass populates (and churns) the bounded cache; the second pass
	// re-evaluates everything, hitting recompute paths for evicted keys.
	for pass := 0; pass < 2; pass++ {
		for i, c := range cs {
			got := bounded.evaluate(p, problems.LevelMedium, c)
			want := unbounded.evaluate(p, problems.LevelMedium, c)
			if got != want {
				t.Fatalf("pass %d completion %d: bounded cache verdict %+v, unbounded %+v", pass, i, got, want)
			}
		}
	}
	if bounded.CacheStats().Evicted == 0 {
		t.Fatal("bounded runner never evicted; the test exercised nothing")
	}
	if unbounded.CacheStats().Evicted != 0 {
		t.Fatal("a negative cache budget must disable eviction")
	}
}

func TestCacheStatsAccounting(t *testing.T) {
	r := NewRunner(gen.NewMutant(), 1)
	p := problems.ByNumber(3)
	r.evaluate(p, problems.LevelLow, "// one\n")
	r.evaluate(p, problems.LevelLow, "// one\n") // hit: no new entry
	r.evaluate(p, problems.LevelLow, "// two\n")
	cs := r.CacheStats()
	if cs.Entries != 2 {
		t.Fatalf("Entries = %d, want 2", cs.Entries)
	}
	if cs.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want positive accounting", cs.Bytes)
	}
	if cs.Evicted != 0 {
		t.Fatalf("Evicted = %d under the default bound on 2 entries", cs.Evicted)
	}
}
