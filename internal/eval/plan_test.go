package eval

import (
	"testing"

	"repro/internal/model"
	"repro/internal/problems"
)

func testPlanQueries() []Query {
	var qs []Query
	for _, p := range problems.All()[:4] {
		for _, l := range problems.Levels {
			for _, temp := range []float64{0.1, 0.7, 1.0} {
				qs = append(qs, Query{
					Model: model.CodeGen16B, Variant: model.FineTuned,
					Problem: p, Level: l, Temperature: temp, N: 3,
				})
			}
		}
	}
	return qs
}

func TestQueryCoordRoundTrip(t *testing.T) {
	for _, q := range testPlanQueries() {
		c := q.Coord()
		got, err := c.Query()
		if err != nil {
			t.Fatalf("coord %+v: %v", c, err)
		}
		if got.Model != q.Model || got.Variant != q.Variant ||
			got.Problem != q.Problem || got.Level != q.Level ||
			got.Temperature != q.Temperature || got.N != q.N {
			t.Fatalf("round trip %+v -> %+v -> %+v", q, c, got)
		}
	}
}

func TestCoordQueryValidates(t *testing.T) {
	base := testPlanQueries()[0].Coord()
	bad := []Coord{}
	c := base
	c.Problem = 9999
	bad = append(bad, c)
	c = base
	c.Level = 7
	bad = append(bad, c)
	c = base
	c.Variant = "XX"
	bad = append(bad, c)
	c = base
	c.N = 0
	bad = append(bad, c)
	c = base
	c.TempMilli = -1
	bad = append(bad, c)
	for _, c := range bad {
		if _, err := c.Query(); err == nil {
			t.Errorf("coord %+v should not resolve", c)
		}
	}
}

func TestPlanDedupAndShardPartition(t *testing.T) {
	p := NewPlan()
	qs := testPlanQueries()
	for i := 0; i < 2; i++ { // add everything twice: dedup must collapse it
		for _, q := range qs {
			if err := p.Add(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.Len() != len(qs) {
		t.Fatalf("plan has %d cells, want %d deduped", p.Len(), len(qs))
	}

	const n = 4
	seen := map[Coord]int{}
	total := 0
	for i := 0; i < n; i++ {
		sub, err := p.Shard(i, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sub.Coords() {
			seen[c]++
		}
		total += sub.Len()
	}
	if total != p.Len() {
		t.Fatalf("shards hold %d cells, plan has %d", total, p.Len())
	}
	for c, count := range seen {
		if count != 1 {
			t.Fatalf("cell %+v appears in %d shards", c, count)
		}
	}
	if _, err := p.Shard(n, n); err == nil {
		t.Error("out-of-range shard index should fail")
	}
	if _, err := p.Shard(0, 0); err == nil {
		t.Error("zero shard count should fail")
	}
}

// TestPlanDedupSurvivesHashCollision: the plan indexes its cells by a
// hash of their coordinates, so two cells that share a hash must still be
// told apart, and each still deduplicated. A collision is forced by
// pointing the second cell's hash at the first.
func TestPlanDedupSurvivesHashCollision(t *testing.T) {
	qs := testPlanQueries()
	a, b, c := qs[0], qs[1], qs[2]
	p := NewPlan()
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	p.seen[b.Coord().hash()] = 0 // b's hash now names a's index
	for i := 0; i < 2; i++ {
		for _, q := range []Query{a, b, c} {
			if err := p.Add(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := p.Coords(); len(got) != 3 || got[0] != a.Coord() || got[1] != b.Coord() || got[2] != c.Coord() {
		t.Fatalf("plan holds %v, want a, b and c once each", got)
	}
}

func TestPlanRejectsUnquantizableTemperature(t *testing.T) {
	p := NewPlan()
	q := testPlanQueries()[0]
	q.Temperature = 0.1234 // not a multiple of 1/1000: wire round trip reseeds
	if err := p.Add(q); err == nil {
		t.Fatal("temperature that does not survive thousandths quantization must be rejected")
	}
	if p.Err() == nil {
		t.Fatal("rejection must stay sticky on the plan")
	}
}

func TestResultSetOverlapAndMissing(t *testing.T) {
	qs := testPlanQueries()
	a := NewResultSet()
	if err := a.Put(qs[0].Coord(), CellStats{Samples: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(qs[0].Coord(), CellStats{Samples: 2}); err == nil {
		t.Fatal("duplicate Put should fail")
	}
	b := NewResultSet()
	if err := b.Put(qs[0].Coord(), CellStats{Samples: 3}); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("overlapping merge should fail")
	}

	sts := a.Cells([]Query{qs[0], qs[1], qs[1]})
	if sts[0].Samples != 1 || sts[1].Samples != 0 {
		t.Fatalf("cells = %+v", sts)
	}
	missing := a.Missing()
	if len(missing) != 1 || missing[0] != qs[1].Coord() {
		t.Fatalf("missing = %+v, want exactly %+v once", missing, qs[1].Coord())
	}
}

// TestShardedRunMatchesMonolithic is the in-process core of the
// make shard-check differential: any partition of a plan, executed by
// separate runners and merged, must reproduce the monolithic per-cell
// stats exactly — floats included.
func TestShardedRunMatchesMonolithic(t *testing.T) {
	plan := NewPlan()
	for _, q := range testPlanQueries() {
		if err := plan.Add(q); err != nil {
			t.Fatal(err)
		}
	}

	mono, err := testRunner(t).RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	merged := NewResultSet()
	for i := 0; i < n; i++ {
		sub, err := plan.Shard(i, n)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh runner per shard: separate processes share no caches.
		rs, err := testRunner(t).RunPlan(sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(rs); err != nil {
			t.Fatal(err)
		}
	}

	if merged.Len() != mono.Len() {
		t.Fatalf("merged %d cells, monolithic %d", merged.Len(), mono.Len())
	}
	for _, c := range mono.Coords() {
		want, _ := mono.Get(c)
		got, ok := merged.Get(c)
		if !ok {
			t.Fatalf("cell %+v missing from merge", c)
		}
		if got != want { // exact, including SumLat bits
			t.Fatalf("cell %+v: merged %+v, monolithic %+v", c, got, want)
		}
	}
}
