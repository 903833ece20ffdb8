package store

// Index tests: the in-memory index keys cells by interned name numbers,
// so every read path translates names to numbers and back. These tests
// reopen stores whose names need JSON escapes or are prefixes of each
// other and hold every read to a reference built from the records
// written, and pin what the index costs per record.

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/eval"
)

// cellRef is a cell's full address spelled with strings: the reference
// the integer keys are checked against.
type cellRef struct {
	id Identity
	c  eval.Coord
}

func TestReopenedIndexMatchesRecordsWritten(t *testing.T) {
	// Backends and models that need JSON escapes (<, &, non-ASCII, a
	// quote, a backslash) or are prefixes of one another.
	backends := []string{"fam", "fam: x", "fam <&>", "famé  ", `fa"m\`}
	models := []string{"CodeGen-16", "CodeGen-16B", "M<é>", "M", "M&"}
	variants := []string{"PT", "FT"}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[cellRef]eval.CellStats{}
	for i := 0; i < 400; i++ {
		id := Identity{Backend: backends[i%len(backends)], Seed: int64(i%3) - 1}
		c := eval.Coord{
			Model: models[(i/2)%len(models)], Variant: variants[(i/3)%2],
			Problem: 1 + (i/7)%17, Level: (i / 11) % 3, TempMilli: 100 * (1 + i%5), N: 4,
		}
		st := mkStats(i)
		if _, dup := ref[cellRef{id, c}]; dup {
			continue
		}
		if err := s.Put(id, c, st); err != nil {
			t.Fatal(err)
		}
		ref[cellRef{id, c}] = st
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if r.Len() != len(ref) {
		t.Fatalf("reopened store holds %d cells, wrote %d", r.Len(), len(ref))
	}
	var want []Entry
	ids := map[Identity]bool{}
	for k, st := range ref {
		if got, ok := r.Get(k.id, k.c); !ok || got != st {
			t.Fatalf("Get(%+v, %+v) = %+v, %v; want %+v", k.id, k.c, got, ok, st)
		}
		want = append(want, Entry{ID: k.id, Coord: k.c, Stats: st})
		ids[k.id] = true
	}
	sortEntries(want)
	if got := r.Query(Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Query lists %d cells, want the %d written", len(got), len(want))
	}
	for _, m := range models {
		f := Filter{Model: m, Seed: int64p(0)}
		var wantM []Entry
		for _, e := range want {
			if f.match(e.ID, e.Coord) {
				wantM = append(wantM, e)
			}
		}
		if got := r.Query(f); !reflect.DeepEqual(got, wantM) {
			t.Errorf("Query(model %q) lists %d cells, want %d", m, len(got), len(wantM))
		}
	}

	var wantIDs []Identity
	for id := range ids {
		wantIDs = append(wantIDs, id)
	}
	sort.Slice(wantIDs, func(i, j int) bool {
		a, b := wantIDs[i], wantIDs[j]
		return a.Backend < b.Backend || a.Backend == b.Backend && a.Seed < b.Seed
	})
	if got := r.Identities(); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("Identities = %v, want %v", got, wantIDs)
	}
	for _, a := range wantIDs {
		for _, b := range wantIDs {
			if got, w := r.Diff(a, b), refDiff(want, a, b); !reflect.DeepEqual(got, w) {
				t.Fatalf("Diff(%v, %v) = %+v, want %+v", a, b, got, w)
			}
		}
	}

	// Split adopts exactly the resident cells of one identity.
	id := Identity{Backend: "fam <&>", Seed: 0}
	plan := eval.NewPlan()
	planned := map[eval.Coord]bool{}
	wantHeld := 0
	for _, e := range want {
		if e.Coord.Model != "M<é>" || planned[e.Coord] {
			continue
		}
		planned[e.Coord] = true
		q, err := e.Coord.Query()
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Add(q); err != nil {
			t.Fatal(err)
		}
		if _, ok := ref[cellRef{id, e.Coord}]; ok {
			wantHeld++
		}
	}
	held, rest, err := r.Split(id, plan)
	if err != nil {
		t.Fatal(err)
	}
	if held.Len() != wantHeld || rest.Len() != plan.Len()-wantHeld {
		t.Fatalf("Split held %d and left %d of %d; want %d held", held.Len(), rest.Len(), plan.Len(), wantHeld)
	}
	for _, c := range held.Coords() {
		got, _ := held.Get(c)
		if st, ok := ref[cellRef{id, c}]; !ok || got != st {
			t.Fatalf("Split held %+v as %+v; written %+v (%v)", c, got, st, ok)
		}
	}

	// A name the store has never held misses and is not interned, in
	// any field and on every read path.
	names, numbered := len(r.strs.names), len(r.strs.ids)
	c := eval.Coord{Model: "CodeGen-16B", Variant: "FT", Problem: 1, Level: 0, TempMilli: 100, N: 4}
	unseenModel := c
	unseenModel.Model = "CodeGen-1"
	for _, k := range []cellRef{
		{Identity{Backend: "fam: y", Seed: 0}, c},
		{Identity{Backend: "fam", Seed: 0}, unseenModel},
	} {
		if st, ok := r.Get(k.id, k.c); ok {
			t.Fatalf("Get(%+v, %+v) hit %+v", k.id, k.c, st)
		}
		if got := r.Query(Filter{Backend: k.id.Backend, Model: k.c.Model}); len(got) != 0 {
			t.Fatalf("Query of an unseen name lists %d cells", len(got))
		}
	}
	if _, rest, err := r.Split(Identity{Backend: "unseen", Seed: 0}, plan); err != nil || rest.Len() != plan.Len() {
		t.Fatalf("Split under an unseen backend left %d of %d cells (%v)", rest.Len(), plan.Len(), err)
	}
	if len(r.strs.names) != names || len(r.strs.ids) != numbered {
		t.Fatalf("reads of unseen names grew the interner from %d to %d names", names, len(r.strs.names))
	}
}

// sortEntries orders entries as Query does.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.ID != b.ID {
			return a.ID.Backend < b.ID.Backend || a.ID.Backend == b.ID.Backend && a.ID.Seed < b.ID.Seed
		}
		return a.Coord.Less(b.Coord)
	})
}

// refDiff is Diff computed from a sorted reference listing.
func refDiff(all []Entry, a, b Identity) DiffResult {
	as, bs := map[eval.Coord]eval.CellStats{}, map[eval.Coord]eval.CellStats{}
	var coords []eval.Coord
	for _, e := range all {
		if e.ID == a {
			as[e.Coord] = e.Stats
		}
		if e.ID == b {
			bs[e.Coord] = e.Stats
		}
		if e.ID == a || e.ID == b {
			coords = append(coords, e.Coord)
		}
	}
	sort.Slice(coords, func(i, j int) bool { return coords[i].Less(coords[j]) })
	coords = slices.Compact(coords)
	var res DiffResult
	for _, c := range coords {
		sa, inA := as[c]
		sb, inB := bs[c]
		switch {
		case inA && inB && sa == sb:
			res.Same++
		case inA && inB:
			res.Changed = append(res.Changed, DiffEntry{Coord: c, A: sa, B: sb})
		case inA:
			res.OnlyA = append(res.OnlyA, c)
		default:
			res.OnlyB = append(res.OnlyB, c)
		}
	}
	return res
}

// TestOpenIndexBytesPerRecord pins what Open allocates per record of a
// store shaped like a family-backend sweep's: the presized index of
// integer keys, the reader buffer and the interned names, about 160
// bytes a record (Open allocates no write buffer). The bound fails a
// map that regrows from empty (about 310 bytes a record) or keys on
// strings (about 400).
func TestOpenIndexBytesPerRecord(t *testing.T) {
	const records = 3000
	const maxBytesPerRecord = 200
	id := Identity{Backend: "family: simulated n-gram line-up (195 fine-tuning docs)", Seed: 1}
	models := []string{"CodeGen-16B", "CodeGen-6B", "CodeGen-2B", "MegatronLM-345M"}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		c := eval.Coord{
			Model: models[i%4], Variant: "FT", Problem: 1 + (i/4)%17, Level: (i / 68) % 3,
			TempMilli: []int{100, 300, 500, 700, 1000}[(i/204)%5], N: 1 + i/1020,
		}
		st := eval.CellStats{Samples: c.N, Compiled: c.N, Passed: i % 2 * c.N, SumLat: 1.8253733440513966 * float64(i+1)}
		if err := s.Put(id, c, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := Open(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != records {
		t.Fatalf("reopened store holds %d cells, wrote %d", r.Len(), records)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / records
	t.Logf("Open allocated %.0f bytes per record", perRecord)
	if perRecord > maxBytesPerRecord {
		t.Fatalf("Open allocated %.0f bytes per record, want at most %d", perRecord, maxBytesPerRecord)
	}
}
