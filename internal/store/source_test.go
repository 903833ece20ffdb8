package store

// Caching-layer tests: the headline guarantees of the PR. A warm store
// serves table3/fig6/passk byte-identically with zero backend calls; a
// killed sweep reopens, truncated tail and all, and resumes to the same
// bytes; failed and declined cells never poison the cache; and identity
// changes invalidate without any explicit flush.

import (
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/problems"
)

// countingBackend counts Complete calls into the wrapped backend — the
// oracle for "a warm sweep performs zero backend calls".
type countingBackend struct {
	inner gen.Backend
	mu    sync.Mutex
	calls int
}

func (b *countingBackend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (gen.Sample, bool) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return b.inner.Complete(key, p, level, temperature, sampleIdx, baseSeed)
}

func (b *countingBackend) Variants() []gen.Key                             { return b.inner.Variants() }
func (b *countingBackend) Prepare([]gen.Key, []*problems.Problem) []func() { return nil }

func (b *countingBackend) Describe() string { return b.inner.Describe() }

func (b *countingBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

var testOpts = eval.SweepOptions{N: 2, Temperatures: []float64{0.1, 0.5}}

// newHarness builds a live harness whose cell reads go through the
// cached source.
func newHarness(r *eval.Runner, src eval.CellSource) *harness.Harness {
	return &harness.Harness{Runner: r, Source: src, Opts: testOpts, Seed: r.Seed}
}

// newResultHarness builds a render-only harness over a finished set.
func newResultHarness(rs *eval.ResultSet) *harness.Harness {
	return harness.FromResults(rs, testOpts)
}

// renderAll renders the three experiments the store-check CI job pins.
func renderAll(h *harness.Harness) string {
	return h.TableIII() + h.Figure6() + h.PassAtKTable()
}

func TestWarmStoreZeroBackendCalls(t *testing.T) {
	dir := t.TempDir()

	// Cold: every cell is a miss, computed through the counting backend
	// and persisted.
	cold := &countingBackend{inner: gen.NewMutant()}
	cr := eval.NewRunner(cold, 11)
	cs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity{Backend: cold.Describe(), Seed: 11}
	csrc := Cached(cr, cs, id)
	coldOut := renderAll(newHarness(cr, csrc))
	if err := csrc.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.count() == 0 {
		t.Fatal("cold run never reached the backend; the test is vacuous")
	}
	// The renderers overlap in the cells they read, so the cold run hits
	// its own freshly persisted cells on later renders; what matters is
	// that everything computed got persisted.
	st := csrc.Stats()
	if st.Misses == 0 || st.Persisted != st.Misses {
		t.Fatalf("cold run stats %+v", st)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm: fresh process (fresh runner, fresh backend, reopened store).
	// Same bytes, zero Complete calls, zero misses.
	warm := &countingBackend{inner: gen.NewMutant()}
	wr := eval.NewRunner(warm, 11)
	ws, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	wsrc := Cached(wr, ws, id)
	warmOut := renderAll(newHarness(wr, wsrc))
	if warmOut != coldOut {
		t.Fatal("warm render differs from cold render")
	}
	if n := warm.count(); n != 0 {
		t.Fatalf("warm run made %d backend calls, want 0", n)
	}
	wst := wsrc.Stats()
	if wst.Misses != 0 || wst.Persisted != 0 || wst.Hits != st.Hits+st.Misses {
		t.Fatalf("warm run stats %+v against cold %+v", wst, st)
	}
}

func TestKillAndReopenResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	b := gen.NewMutant()
	id := Identity{Backend: b.Describe(), Seed: 5}

	// Reference: the monolithic cold run's table bytes and result set.
	cr := eval.NewRunner(b, 5)
	cs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(cr, Cached(cr, cs, id))
	plan, err := h.PlanFor([]string{"table3", "fig6", "passk"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Cached(cr, cs, id).RunPlanCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := renderAll(newResultHarness(want))
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill: tear the final segment mid-record, losing the tail of the
	// sweep's durable progress.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: reopen recovers to the last durable cell; the re-run serves
	// the survivors as hits, recomputes only the lost tail, and renders
	// the identical bytes.
	rs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rr := eval.NewRunner(gen.NewMutant(), 5)
	rsrc := Cached(rr, rs, id)
	got, err := rsrc.RunPlanCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if gotOut := renderAll(newResultHarness(got)); gotOut != wantOut {
		t.Fatal("resumed render differs from the uninterrupted run")
	}
	st := rsrc.Stats()
	if st.Hits == 0 {
		t.Fatalf("resume adopted no durable cells: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("resume recomputed nothing; the tear lost no cells: %+v", st)
	}
	if st.Hits+st.Misses != plan.Len() {
		t.Fatalf("hits %d + misses %d != plan cells %d", st.Hits, st.Misses, plan.Len())
	}
	// The recomputed tail is durable again: a second warm pass is all hits.
	second := Cached(eval.NewRunner(gen.NewMutant(), 5), rs, id)
	if _, err := second.RunPlanCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if sst := second.Stats(); sst.Misses != 0 {
		t.Fatalf("second resume still missed %d cells", sst.Misses)
	}
}

// fakeInner is a scriptable CellSource: it serves fixed stats, marks
// configured coordinates failed (serving zeros for them, as the Runner
// does), and declines configured coordinates with zero samples. It
// reports no failures, so the store can tell a failed cell only by its
// zero samples.
type fakeInner struct {
	calls    int
	failed   map[eval.Coord]bool
	declined map[eval.Coord]bool
}

func (f *fakeInner) Cells(qs []eval.Query) []eval.CellStats {
	out := make([]eval.CellStats, len(qs))
	for i, q := range qs {
		f.calls++
		c := q.Coord()
		if f.failed[c] || f.declined[c] {
			continue // zero stats
		}
		out[i] = eval.CellStats{Samples: c.N, Compiled: c.N, Passed: c.N / 2, SumLat: float64(c.Problem)}
	}
	return out
}

func TestCachedSourceSkipsFailedAndDeclinedCells(t *testing.T) {
	good := mkCoord(1, 0, 100, 4)
	bad := mkCoord(2, 0, 100, 4)
	declined := mkCoord(3, 0, 100, 4)
	inner := &fakeInner{
		failed:   map[eval.Coord]bool{bad: true},
		declined: map[eval.Coord]bool{declined: true},
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := Cached(inner, st, testID)

	var qs []eval.Query
	for _, c := range []eval.Coord{good, bad, declined} {
		q, err := c.Query()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	out := src.Cells(qs)
	if out[0].Samples == 0 || out[1].Samples != 0 || out[2].Samples != 0 {
		t.Fatalf("served stats %+v", out)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(testID, good); !ok {
		t.Fatal("good cell not persisted")
	}
	if _, ok := st.Get(testID, bad); ok {
		t.Fatal("failed cell persisted: its zeros would outlive the failure")
	}
	if _, ok := st.Get(testID, declined); ok {
		t.Fatal("declined cell persisted")
	}
	if s := src.Stats(); s.Persisted != 1 || s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("stats %+v", s)
	}

	// The failed cell stays a miss: a later batch retries it (and the
	// failure having cleared, persists it).
	inner.failed = nil
	out = src.Cells(qs[:2])
	if out[0].Samples == 0 || out[1].Samples == 0 {
		t.Fatalf("retry served %+v", out)
	}
	if s := src.Stats(); s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("retry stats %+v", s)
	}
	if _, ok := st.Get(testID, bad); !ok {
		t.Fatal("recovered cell not persisted on retry")
	}

	// The plan path keeps the same two cells out of a fresh store: the
	// inner plan run omits the failed cell and serves the declined one
	// with zero samples, and only the good cell is banked.
	fresh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	inner.failed = map[eval.Coord]bool{bad: true}
	psrc := Cached(planInner{inner}, fresh, testID)
	plan, err := eval.PlanFromCoords([]eval.Coord{good, bad, declined})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := psrc.RunPlanCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.Get(bad); ok || rs.Len() != 2 {
		t.Fatalf("plan run returned %v: the failed cell must be left out", rs.Coords())
	}
	if fresh.Len() != 1 {
		t.Fatalf("plan run banked %d cells, want only the good one", fresh.Len())
	}
	if s := psrc.Stats(); s.Persisted != 1 || s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("plan stats %+v", s)
	}
}

// planInner runs a plan over a fakeInner the way the Runner does: a
// failed cell is left out of the returned set, a declined one is served
// with zero samples.
type planInner struct{ *fakeInner }

func (p planInner) RunPlanCtx(_ context.Context, plan *eval.Plan) (*eval.ResultSet, error) {
	rs := eval.NewResultSet()
	qs := plan.Queries()
	for i, st := range p.Cells(qs) {
		if c := qs[i].Coord(); !p.failed[c] {
			if err := rs.Put(c, st); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// TestRunPlanNeedsPlanRunnerForMisses: the plan path delegates misses
// only through the inner source's own RunPlanCtx, the one call that
// reports which of its cells failed. A bare CellSource cannot serve a
// miss there; an all-hit plan never reaches the inner source at all.
func TestRunPlanNeedsPlanRunnerForMisses(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hit, missed := mkCoord(6, 0, 100, 4), mkCoord(7, 0, 100, 4)
	if err := st.Put(testID, hit, mkStats(1)); err != nil {
		t.Fatal(err)
	}
	inner := &fakeInner{}
	src := Cached(inner, st, testID)
	plan := func(cs ...eval.Coord) *eval.Plan {
		p, err := eval.PlanFromCoords(cs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := src.RunPlanCtx(context.Background(), plan(hit, missed)); err == nil {
		t.Fatal("plan with a miss ran over a bare CellSource")
	}
	if inner.calls != 0 {
		t.Fatalf("bare CellSource served %d cells on the plan path", inner.calls)
	}
	rs, err := src.RunPlanCtx(context.Background(), plan(hit))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rs.Get(hit); !ok || got != mkStats(1) {
		t.Fatalf("all-hit plan served %+v (present %v)", got, ok)
	}
}

func TestIdentityInvalidation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := mkCoord(4, 1, 500, 4)
	q, err := c.Query()
	if err != nil {
		t.Fatal(err)
	}

	a := Cached(&fakeInner{}, st, Identity{Backend: "backend A", Seed: 1})
	a.Cells([]eval.Query{q})
	if s := a.Stats(); s.Misses != 1 || s.Persisted != 1 {
		t.Fatalf("first sweep stats %+v", s)
	}

	// Same store, different backend tag and different seed: both look up
	// different keys, so neither hits the first sweep's cell.
	for _, id := range []Identity{{Backend: "backend B", Seed: 1}, {Backend: "backend A", Seed: 2}} {
		src := Cached(&fakeInner{}, st, id)
		src.Cells([]eval.Query{q})
		if s := src.Stats(); s.Hits != 0 || s.Misses != 1 {
			t.Fatalf("identity %s stats %+v: stale hit across identity change", id, s)
		}
	}
	// The original identity still hits.
	again := Cached(&fakeInner{}, st, Identity{Backend: "backend A", Seed: 1})
	again.Cells([]eval.Query{q})
	if s := again.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("original identity stats %+v", s)
	}
}

func TestPersistConflictGoesSticky(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := mkCoord(5, 2, 1000, 4)
	if err := st.Put(testID, c, mkStats(1)); err != nil {
		t.Fatal(err)
	}
	src := Cached(&fakeInner{}, st, testID)
	conflict := eval.NewResultSet()
	if err := conflict.Put(c, eval.CellStats{Samples: 4, Compiled: 4, Passed: 4, SumLat: 1}); err != nil {
		t.Fatal(err)
	}
	if n := src.persist(conflict); n != 0 {
		t.Fatal("conflicting persist reported success")
	}
	if src.Err() == nil {
		t.Fatal("conflict did not stick on the source")
	}
	if st.Err() != nil {
		t.Fatal("a rejected Put must not poison the store itself")
	}
}
