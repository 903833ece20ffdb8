package store

// The query layer: the store doubles as sweep history, so ad-hoc "what
// did that run produce" table regeneration becomes a filtered listing
// (Query) and "what changed between those two sweeps" becomes a
// coordinate-aligned Diff between two identities. Both are read-only
// and deterministic: results come out sorted by identity then canonical
// coordinate order, never map order.

import (
	"sort"

	"repro/internal/eval"
)

// Filter selects cells for Query. Nil/zero fields match everything;
// string fields match exactly; int pointers pin one value.
type Filter struct {
	Backend   string // "" = any
	Seed      *int64
	Model     string // "" = any
	Variant   string // "" = any
	Problem   *int
	Level     *int
	TempMilli *int
	N         *int
}

func (f Filter) match(id Identity, c eval.Coord) bool {
	switch {
	case f.Backend != "" && id.Backend != f.Backend,
		f.Seed != nil && id.Seed != *f.Seed,
		f.Model != "" && c.Model != f.Model,
		f.Variant != "" && c.Variant != f.Variant,
		f.Problem != nil && c.Problem != *f.Problem,
		f.Level != nil && c.Level != *f.Level,
		f.TempMilli != nil && c.TempMilli != *f.TempMilli,
		f.N != nil && c.N != *f.N:
		return false
	}
	return true
}

// Entry is one resident cell with its full key.
type Entry struct {
	ID    Identity
	Coord eval.Coord
	Stats eval.CellStats
}

// Query lists the resident cells matching the filter, sorted by
// identity (backend tag, then seed) and canonical coordinate order.
func (s *Store) Query(f Filter) []Entry {
	s.mu.Lock()
	var out []Entry
	for k, st := range s.cells {
		if id, c := s.strs.cell(k); f.match(id, c) {
			out = append(out, Entry{ID: id, Coord: c, Stats: st})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ID.Backend != b.ID.Backend {
			return a.ID.Backend < b.ID.Backend
		}
		if a.ID.Seed != b.ID.Seed {
			return a.ID.Seed < b.ID.Seed
		}
		return a.Coord.Less(b.Coord)
	})
	return out
}

// Identities lists the distinct sweep identities with resident cells,
// sorted by backend tag then seed. Each identity is collected once, as
// the first cell keyed by its (backend number, seed) pair, so only the
// few distinct identities are sorted.
func (s *Store) Identities() []Identity {
	type pair struct {
		backend uint32
		seed    int64
	}
	s.mu.Lock()
	seen := map[pair]bool{}
	var out []Identity
	for k := range s.cells {
		if p := (pair{k.backend, k.seed}); !seen[p] {
			seen[p] = true
			out = append(out, Identity{Backend: s.strs.names[k.backend].s, Seed: k.seed})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Backend != out[j].Backend {
			return out[i].Backend < out[j].Backend
		}
		return out[i].Seed < out[j].Seed
	})
	return out
}

// DiffEntry is one coordinate present under both diffed identities with
// differing stats.
type DiffEntry struct {
	Coord eval.Coord
	A, B  eval.CellStats
}

// DiffResult is the coordinate-aligned comparison of two identities'
// resident cells.
type DiffResult struct {
	OnlyA, OnlyB []eval.Coord // cells one identity has and the other lacks
	Changed      []DiffEntry  // cells present in both with different stats
	Same         int          // cells present in both with identical stats
}

// Diff compares the cells resident under two identities, coordinate by
// coordinate. All slices come out in canonical coordinate order: both
// sides come from Query (already sorted), so a single merge walk aligns
// them without ever touching map iteration order.
func (s *Store) Diff(a, b Identity) DiffResult {
	if a == b {
		// Degenerate but well-defined: an identity diffed against itself
		// has every resident cell identical.
		return DiffResult{Same: len(s.Query(Filter{Backend: a.Backend, Seed: &a.Seed}))}
	}
	// Backend tags are never empty in a resident cell (the record writer
	// rejects them), so these filters select exactly one identity each.
	as := s.Query(Filter{Backend: a.Backend, Seed: &a.Seed})
	bs := s.Query(Filter{Backend: b.Backend, Seed: &b.Seed})

	var res DiffResult
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		ac, bc := as[i].Coord, bs[j].Coord
		switch {
		case ac == bc:
			if as[i].Stats == bs[j].Stats {
				res.Same++
			} else {
				res.Changed = append(res.Changed, DiffEntry{Coord: ac, A: as[i].Stats, B: bs[j].Stats})
			}
			i++
			j++
		case ac.Less(bc):
			res.OnlyA = append(res.OnlyA, ac)
			i++
		default:
			res.OnlyB = append(res.OnlyB, bc)
			j++
		}
	}
	for ; i < len(as); i++ {
		res.OnlyA = append(res.OnlyA, as[i].Coord)
	}
	for ; j < len(bs); j++ {
		res.OnlyB = append(res.OnlyB, bs[j].Coord)
	}
	return res
}
