package coord

// Supervised sweeps over a result store: a cold run persists every
// computed cell, a warm re-run adopts the whole sweep without launching
// a single worker, and a partially warm store shrinks the shard plans.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/store"
)

func storeFW(t *testing.T, storeDir string) *core.Framework {
	t.Helper()
	fw, err := core.New(core.Config{
		Seed:     7,
		Backend:  "mutant",
		Sweep:    eval.SweepOptions{N: 1, Temperatures: []float64{0.1}},
		StoreDir: storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestCoordStoreColdThenWarm(t *testing.T) {
	storeDir := t.TempDir()

	// Ground truth from a store-less monolithic run.
	plain := coordFW(t)
	want := monolithic(t, plain)
	plain.Close()

	// Cold supervised run: every cell computed and persisted.
	cold := storeFW(t, storeDir)
	coldLog := &eventLog{}
	res, err := Run(context.Background(), cold, baseConfig(t.TempDir(), coldLog), &FrameworkLauncher{FW: cold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("cold run incomplete:\n%s", res.Report())
	}
	sameCells(t, res.Set, want)
	if !res.StoreUsed || res.StoreAdopted != 0 || res.StoreNew != want.Len() {
		t.Fatalf("cold run store accounting: used=%v adopted=%d new=%d (want %d new)",
			res.StoreUsed, res.StoreAdopted, res.StoreNew, want.Len())
	}
	// In-process attempts bank their cells through the framework's cached
	// source, so the coordinator's own PutSet finds every cell resident.
	if added, resident, err := cold.Store.PutSet(cold.SweepIdentity(), res.Set); err != nil || added != 0 || resident != want.Len() {
		t.Fatalf("re-banking the cold result: %d added, %d resident, err %v; want 0, %d", added, resident, err, want.Len())
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm supervised run in a FRESH coordinator directory: no shard
	// files to resume from, so every adopted cell comes from the store —
	// and the whole sweep completes without one worker launch.
	warm := storeFW(t, storeDir)
	defer warm.Close()
	warmLog := &eventLog{}
	launches := &countingLauncher{inner: &FrameworkLauncher{FW: warm}}
	res2, err := Run(context.Background(), warm, baseConfig(t.TempDir(), warmLog), launches)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete() {
		t.Fatalf("warm run incomplete:\n%s", res2.Report())
	}
	sameCells(t, res2.Set, want)
	if n := launches.calls.Load(); n != 0 {
		t.Fatalf("warm run launched %d worker attempt(s), want 0", n)
	}
	if warmLog.count(EventStart) != 0 || warmLog.count(EventSteal) != 0 {
		t.Fatalf("warm run dispatched work: %+v", warmLog.events)
	}
	if warmLog.count(EventResume) != baseConfig("", nil).Shards {
		t.Fatalf("warm run emitted %d resume events, want one per shard", warmLog.count(EventResume))
	}
	if res2.StoreAdopted != want.Len() || res2.StoreNew != 0 {
		t.Fatalf("warm run store accounting: adopted=%d new=%d (want %d adopted, 0 new)",
			res2.StoreAdopted, res2.StoreNew, want.Len())
	}
	for _, st := range res2.Shards {
		if !st.Done || !st.Resumed {
			t.Fatalf("warm run shard status %+v, want done+resumed", st)
		}
	}
}

func TestCoordStorePartialWarm(t *testing.T) {
	storeDir := t.TempDir()

	// Ground truth from a store-less run, then plant every other cell
	// into the store in a separate writer session (the store assumes one
	// writing process at a time).
	plain := coordFW(t)
	full := monolithic(t, plain)
	plain.Close()
	seed, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	id := store.Identity{Backend: gen.NewMutant().Describe(), Seed: 7}
	planted := 0
	for i, c := range full.Coords() {
		if i%2 == 0 {
			st, _ := full.Get(c)
			if err := seed.Put(id, c, st); err != nil {
				t.Fatal(err)
			}
			planted++
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	fw := storeFW(t, storeDir)
	defer fw.Close()
	if got := fw.SweepIdentity(); got != id {
		t.Fatalf("planted under identity %s, framework sweeps %s", id, got)
	}
	log := &eventLog{}
	res, err := Run(context.Background(), fw, baseConfig(t.TempDir(), log), &FrameworkLauncher{FW: fw})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("partial-warm run incomplete:\n%s", res.Report())
	}
	sameCells(t, res.Set, full)
	if res.StoreAdopted != planted {
		t.Fatalf("adopted %d cells, planted %d", res.StoreAdopted, planted)
	}
	if res.StoreNew != full.Len()-planted {
		t.Fatalf("persisted %d new cells, want the %d the shards computed", res.StoreNew, full.Len()-planted)
	}
	if log.count(EventStart) == 0 {
		t.Fatal("partial-warm run dispatched no work despite missing cells")
	}
	// The store now holds the whole sweep: splitting its plan again leaves
	// nothing to compute.
	plan, err := fw.Harness.PlanFor(testExps)
	if err != nil {
		t.Fatal(err)
	}
	held, rest, err := fw.Store.Split(id, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Len() != 0 || held.Len() != full.Len() {
		t.Fatalf("after the run the store holds %d of %d cells (%d still to compute)", held.Len(), full.Len(), rest.Len())
	}
}
