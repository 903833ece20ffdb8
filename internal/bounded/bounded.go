// Package bounded provides the one cache type every memo tier in the
// evaluation pipeline is built on: a concurrent map bounded by an
// accounted cost budget with first-in-first-out eviction.
//
// Callers that cache pure functions of their keys rely on three rules:
// the first Add of a key wins, so every caller that races on a miss ends
// up sharing one value; the entry just added is never evicted, so Add
// always returns a resident value even when that entry alone exceeds the
// budget; and eviction is oldest-first by insertion, never by access, so
// the hit path only takes a read lock.
package bounded

import (
	"sync"
	"sync/atomic"
)

// Cache maps keys to values under a cost budget. The zero value is not
// usable; construct one with New.
type Cache[K comparable, V any] struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	mu      sync.RWMutex
	m       map[K]V
	fifo    []entry[K] // insertion order; fifo[head:] is live
	head    int
	budget  int64 // <0 = unbounded
	bytes   int64
	evicted uint64
}

type entry[K comparable] struct {
	k    K
	cost int64
}

// Stats is a point-in-time snapshot of a cache's counters. Hits and
// Misses count Get calls; Evicted counts entries dropped to hold the
// budget; Entries and Bytes are the resident count and accounted cost.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Evicted uint64
	Entries int
	Bytes   int64
}

// New returns an empty cache holding at most budget accounted cost
// (beyond the newest entry); a negative budget means unbounded.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{m: map[K]V{}, budget: budget}
}

// Get returns the value cached for k and counts a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Add caches v under k at the given cost and returns the resident value:
// v, or the value an earlier Add of k left in place. Entries are then
// evicted oldest-first until the budget holds, never the one just added.
func (c *Cache[K, V]) Add(k K, v V, cost int64) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		return old
	}
	c.m[k] = v
	c.fifo = append(c.fifo, entry[K]{k: k, cost: cost})
	c.bytes += cost
	if c.budget >= 0 {
		for c.bytes > c.budget && len(c.fifo)-c.head > 1 {
			e := c.fifo[c.head]
			c.fifo[c.head] = entry[K]{} // release the key
			c.head++
			delete(c.m, e.k)
			c.bytes -= e.cost
			c.evicted++
		}
		// Reclaim the dead prefix once it is at least half the slice, so
		// the copy is paid for by the evictions that made it.
		if c.head > 32 && c.head*2 >= len(c.fifo) {
			n := copy(c.fifo, c.fifo[c.head:])
			clear(c.fifo[n:])
			c.fifo = c.fifo[:n]
			c.head = 0
		}
	}
	return v
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Evicted: c.evicted,
		Entries: len(c.m),
		Bytes:   c.bytes,
	}
}
