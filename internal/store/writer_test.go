package store

// Plan-path writer tests: the resumed run hands each finished cell to a
// writer that banks plan-order groups of runChunk misses behind the
// workers. Whatever the workers are doing, the durable store holds
// exactly the groups that are whole, in plan order; the bytes it writes
// do not depend on the pool width; and a cell the store refuses stops
// the run.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// gateKey addresses one sample of a cell of writerPlan.
type gateKey struct{ problem, level, tempMilli, sample int }

func gateOf(q eval.Query, sample int) gateKey {
	return gateKey{q.Problem.Number, int(q.Level), gen.TempMilli(q.Temperature), sample}
}

// gateBackend is the mutant backend on the batch path, with gates: a
// request for a gated sample reports on reached and parks until its
// channel is closed or the run's context is canceled. A gate still shut
// after ten seconds gives up and sets stuck. served counts the samples
// returned.
type gateBackend struct {
	*gen.Mutant
	gates   map[gateKey]chan struct{}
	reached chan gateKey
	stuck   atomic.Bool
	served  atomic.Int64
}

func newGateBackend(gates ...gateKey) *gateBackend {
	b := &gateBackend{Mutant: gen.NewMutant(), gates: map[gateKey]chan struct{}{}, reached: make(chan gateKey, len(gates))}
	for _, g := range gates {
		b.gates[g] = make(chan struct{})
	}
	return b
}

func (b *gateBackend) CompleteBatch(ctx context.Context, reqs []gen.Request) []gen.BatchResult {
	res := make([]gen.BatchResult, len(reqs))
	for i, rq := range reqs {
		k := gateKey{rq.Problem.Number, int(rq.Level), gen.TempMilli(rq.Temperature), rq.SampleIdx}
		if gate, ok := b.gates[k]; ok {
			b.reached <- k
			select {
			case <-gate:
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				b.stuck.Store(true)
			}
		}
		s, ok := b.Complete(rq.Key, rq.Problem, rq.Level, rq.Temperature, rq.SampleIdx, rq.BaseSeed)
		res[i] = gen.BatchResult{Sample: s, OK: ok}
		b.served.Add(1)
	}
	return res
}

// writerPlan is 204 cells of one line (seven groups of runChunk, the
// last partial), each its own draw of two samples.
func writerPlan(t *testing.T) *eval.Plan {
	t.Helper()
	p := eval.NewPlan()
	for num := 1; num <= 17; num++ {
		for _, l := range problems.Levels {
			for _, temp := range []float64{0.1, 0.3, 0.5, 0.7} {
				q := eval.Query{Model: model.CodeGen16B, Variant: model.FineTuned,
					Problem: problems.ByNumber(num), Level: l, Temperature: temp, N: 2}
				if err := p.Add(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return p
}

// copyDir copies the store directory src to a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// durable opens a copy of dir, as a process would after a crash, and
// reports which of qs it holds.
func durable(t *testing.T, dir string, id Identity, qs []eval.Query) []bool {
	t.Helper()
	s, err := Open(copyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	held := make([]bool, len(qs))
	for i, q := range qs {
		_, held[i] = s.Get(id, q.Coord())
	}
	return held
}

// TestResumeBanksWholeGroupsInPlanOrder: with one sample of cell 69
// parked, the other worker finishes the rest of the plan, yet a crash
// copy of the store holds exactly groups 0 and 1 — the whole groups
// before cell 69's — and after the release it holds the whole plan.
func TestResumeBanksWholeGroupsInPlanOrder(t *testing.T) {
	p := writerPlan(t)
	qs := p.Queries()
	const blocked = 2*runChunk + 5
	b := newGateBackend(gateOf(qs[blocked], 1))
	r := eval.NewRunner(b, 5)
	r.Workers, r.BatchSize = 2, 1
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := Identity{Backend: b.Describe(), Seed: 5}
	src := Cached(r, st, id)
	done := make(chan error, 1)
	go func() {
		_, err := src.RunPlanCtx(context.Background(), p)
		done <- err
	}()

	<-b.reached
	// Wait until the other worker has served every other sample and the
	// writer has banked the whole groups; then give a writer that banks
	// out of order time to show it.
	want := blocked / runChunk * runChunk
	deadline := time.Now().Add(10 * time.Second)
	for b.served.Load() < int64(2*p.Len()-1) || src.Stats().Misses < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d samples served and %d misses banked, want %d and %d", b.served.Load(), src.Stats().Misses, 2*p.Len()-1, want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	for i, h := range durable(t, dir, id, qs) {
		if h != (i < want) {
			t.Fatalf("cell %d durable: %v, with cell %d, in group %d, unfinished", i, h, blocked, blocked/runChunk)
		}
	}

	close(b.gates[gateOf(qs[blocked], 1)])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, h := range durable(t, dir, id, qs) {
		if !h {
			t.Fatalf("cell %d not durable after the run", i)
		}
	}
	if s := src.Stats(); s.Hits != 0 || s.Misses != p.Len() || s.Persisted != p.Len() {
		t.Fatalf("stats %+v, want %d misses all persisted", s, p.Len())
	}
	if b.stuck.Load() {
		t.Fatal("a gate timed out")
	}
}

// segmentBytes concatenates a store directory's segments in order.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "cells-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestResumedSegmentBytesMatchPutSet: resuming a store that holds every
// other cell of the plan writes the same bytes at 1, 2 and 8 workers, and
// they are the bytes PutSet writes for the misses banked runChunk at a
// time in plan order.
func TestResumedSegmentBytesMatchPutSet(t *testing.T) {
	p := writerPlan(t)
	b := gen.NewMutant()
	id := Identity{Backend: b.Describe(), Seed: 9}
	all, err := eval.NewRunner(b, 9).RunPlanCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	half, err := p.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	template := t.TempDir()
	ts, err := Open(template)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range half.Coords() {
		st, _ := all.Get(c)
		if err := ts.Put(id, c, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: the misses banked by hand.
	refDir := copyDir(t, template)
	ref, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := ref.Split(id, p)
	if err != nil {
		t.Fatal(err)
	}
	miss := rest.Queries()
	for lo := 0; lo < len(miss); lo += runChunk {
		group := eval.NewResultSet()
		for _, q := range miss[lo:min(lo+runChunk, len(miss))] {
			st, _ := all.Get(q.Coord())
			if err := group.Put(q.Coord(), st); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := ref.PutSet(id, group); err != nil {
			t.Fatal(err)
		}
		if err := ref.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := segmentBytes(t, refDir)

	for _, w := range []int{1, 2, 8} {
		dir := copyDir(t, template)
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := eval.NewRunner(b, 9)
		r.Workers = w
		src := Cached(r, st, id)
		if _, err := src.RunPlanCtx(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if s := src.Stats(); s.Hits != half.Len() || s.Misses != len(miss) || s.Persisted != len(miss) {
			t.Fatalf("workers=%d: stats %+v", w, s)
		}
		if got := segmentBytes(t, dir); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed segment (%d bytes) differs from PutSet's by group (%d bytes)", w, len(got), len(want))
		}
	}
}

// TestPersistConflictCancelsPlanRun: a cell that conflicts with what the store
// holds stops the run. One worker parks at cell 40 while a conflicting
// value for cell 35 lands in the store; once released, it would park
// again at cell 70 until its context is canceled, which only the writer
// does, on banking group 1. The run returns the conflict, and nothing
// after group 1 is banked.
func TestPersistConflictCancelsPlanRun(t *testing.T) {
	p := writerPlan(t)
	qs := p.Queries()
	first, second := gateOf(qs[40], 0), gateOf(qs[70], 1)
	b := newGateBackend(first, second)
	r := eval.NewRunner(b, 5)
	r.Workers, r.BatchSize = 1, 1
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := Identity{Backend: b.Describe(), Seed: 5}
	src := Cached(r, st, id)
	done := make(chan error, 1)
	go func() {
		_, err := src.RunPlanCtx(context.Background(), p)
		done <- err
	}()

	<-b.reached
	if err := st.Put(id, qs[35].Coord(), eval.CellStats{Samples: 2, Compiled: 2, Passed: 2, SumLat: 123}); err != nil {
		t.Fatal(err)
	}
	close(b.gates[first])
	err = <-done
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "refusing conflicting") {
		t.Fatalf("run returned %v, want the conflict", err)
	}
	// The worker stopped at cell 70's gate or, if the cancellation came
	// first, before it: either way well short of the plan's end.
	if b.stuck.Load() {
		t.Fatal("the conflict did not cancel the run: the gate at cell 70 timed out")
	}
	if n := b.served.Load(); n > 2*71 {
		t.Fatalf("the worker served %d samples, past cell 70", n)
	}
	for i, q := range qs[2*runChunk:] {
		if _, ok := st.Get(id, q.Coord()); ok {
			t.Fatalf("cell %d banked after the conflict in group 1", 2*runChunk+i)
		}
	}
	if err := src.Err(); err == nil {
		t.Fatal("the conflict did not stick on the source")
	}
}
