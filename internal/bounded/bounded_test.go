package bounded

import (
	"fmt"
	"sync"
	"testing"
)

// TestChurnStaysWithinBudget adds thousands of entries of mixed cost and
// checks after every Add that the accounted bytes exceed the budget only
// when the newest entry alone is over it, that Bytes is exactly the sum
// of the resident entries' costs, and that every resident entry is one of
// the most recent insertions (FIFO, not arbitrary, eviction).
func TestChurnStaysWithinBudget(t *testing.T) {
	const budget = 1000
	c := New[int, int](budget)
	costs := map[int]int64{}
	for i := 0; i < 5000; i++ {
		cost := int64(1 + (i*37)%300)
		if i%97 == 0 {
			cost = 2 * budget // one entry alone over budget
		}
		costs[i] = cost
		c.Add(i, i*i, cost)
		st := c.Stats()
		if st.Bytes > budget && st.Entries > 1 {
			t.Fatalf("add %d: %d bytes in %d entries over the %d budget", i, st.Bytes, st.Entries, budget)
		}
		var sum int64
		for k := i; k > i-st.Entries; k-- {
			v, ok := c.Get(k)
			if !ok || v != k*k {
				t.Fatalf("add %d: entry %d not resident (%d, %v) though %d newer entries are", i, k, v, ok, st.Entries)
			}
			sum += costs[k]
		}
		if st.Bytes != sum {
			t.Fatalf("add %d: Bytes = %d, resident costs sum to %d", i, st.Bytes, sum)
		}
	}
	if c.Stats().Evicted == 0 {
		t.Fatal("5000 adds into a 1000-byte budget evicted nothing")
	}
}

// TestNewestNeverEvicted: an entry costing more than the whole budget
// still stays resident, alone, until the next Add displaces it.
func TestNewestNeverEvicted(t *testing.T) {
	c := New[string, int](10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	if got := c.Add("huge", 3, 100); got != 3 {
		t.Fatalf("Add returned %d, want the added value", got)
	}
	if v, ok := c.Get("huge"); !ok || v != 3 {
		t.Fatalf("over-budget newest entry evicted: %d, %v", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 100 || st.Evicted != 2 {
		t.Fatalf("stats = %+v, want the huge entry alone after 2 evictions", st)
	}
	c.Add("c", 4, 1)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("older over-budget entry survived a newer Add")
	}

	zero := New[int, int](0)
	for i := 0; i < 3; i++ {
		zero.Add(i, i, 1)
		if v, ok := zero.Get(i); !ok || v != i {
			t.Fatalf("zero budget: newest entry %d evicted", i)
		}
	}
}

// TestNegativeBudgetUnbounded: a negative budget never evicts.
func TestNegativeBudgetUnbounded(t *testing.T) {
	c := New[int, int](-1)
	for i := 0; i < 10000; i++ {
		c.Add(i, i, 1<<20)
	}
	st := c.Stats()
	if st.Entries != 10000 || st.Evicted != 0 || st.Bytes != 10000<<20 {
		t.Fatalf("unbounded cache stats = %+v", st)
	}
}

// TestFirstAddWins: 16 goroutines race to Add distinct values under the
// same keys; every caller must get back the one resident value, and only
// the first Add of each key is accounted.
func TestFirstAddWins(t *testing.T) {
	const keys, workers = 64, 16
	c := New[string, *int](-1)
	got := make([][keys]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				v := new(int)
				*v = w
				got[w][k] = c.Add(fmt.Sprint("k", k), v, 1)
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		resident, ok := c.Get(fmt.Sprint("k", k))
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		for w := 0; w < workers; w++ {
			if got[w][k] != resident {
				t.Fatalf("key %d: worker %d got value of worker %d, resident is worker %d's", k, w, *got[w][k], *resident)
			}
		}
	}
	if st := c.Stats(); st.Entries != keys || st.Bytes != keys {
		t.Fatalf("stats = %+v, want %d entries costing %d", st, keys, keys)
	}
}

// TestStatsExact pins every counter through a scripted sequence.
func TestStatsExact(t *testing.T) {
	c := New[int, string](3)
	want := func(label string, w Stats) {
		t.Helper()
		if got := c.Stats(); got != w {
			t.Fatalf("%s: stats = %+v, want %+v", label, got, w)
		}
	}
	want("empty", Stats{})
	c.Get(1)
	want("one miss", Stats{Misses: 1})
	c.Add(1, "a", 1)
	c.Add(2, "b", 2)
	c.Get(1)
	c.Get(2)
	want("two resident", Stats{Hits: 2, Misses: 1, Entries: 2, Bytes: 3})
	if v := c.Add(1, "again", 5); v != "a" {
		t.Fatalf("second Add of a key returned %q, want the first value", v)
	}
	want("repeat Add changes nothing", Stats{Hits: 2, Misses: 1, Entries: 2, Bytes: 3})
	c.Add(3, "c", 2) // 5 > 3: evicts 1 (cost 1), then 4 > 3: evicts 2
	want("evict two", Stats{Hits: 2, Misses: 1, Evicted: 2, Entries: 1, Bytes: 2})
	c.Get(1)
	c.Get(3)
	want("after eviction", Stats{Hits: 3, Misses: 2, Evicted: 2, Entries: 1, Bytes: 2})
}
