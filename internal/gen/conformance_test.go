package gen_test

// The backend conformance suite: every backend in core's backend table
// must honor the layer's contract — samples are pure functions of their
// coordinates, sweeps are byte-identical at any worker-pool width, and
// Complete is safe to call from every worker at once (the concurrency
// test is meaningful under `go test -race`, which the Makefile race
// target and CI run).

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/remote"
)

const confSeed = 55

// confVariant maps a backend key onto typed query coordinates.
func confVariant(t *testing.T, k gen.Key) (model.ID, model.Variant) {
	t.Helper()
	v, ok := gen.ParseVariant(k.Variant)
	if !ok {
		t.Fatalf("unknown variant string %q", k.Variant)
	}
	return model.ID(k.Model), v
}

// confQueries is the probe sweep: two problems, two levels, two
// temperatures, three samples each, on the backend's first variant.
func confQueries(t *testing.T, b gen.Backend) []eval.Query {
	id, v := confVariant(t, b.Variants()[0])
	var qs []eval.Query
	for _, pn := range []int{1, 6} {
		for _, l := range []problems.Level{problems.LevelLow, problems.LevelMedium} {
			for _, temp := range []float64{0.1, 1.0} {
				qs = append(qs, eval.Query{
					Model: id, Variant: v,
					Problem: problems.ByNumber(pn), Level: l, Temperature: temp, N: 3,
				})
			}
		}
	}
	return qs
}

// recordForReplay produces the JSONL recording the replay backend serves
// during conformance: the mutant backend (cheap: no corpus, no training)
// swept over the probe queries under the conformance runner seed.
func recordForReplay(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conformance.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	src := gen.NewMutant()
	rec := gen.NewRecorder(src, f)
	r := eval.NewRunner(rec, confSeed)
	r.Workers = 4
	r.EvaluateBatch(confQueries(t, src))
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// startRemoteEndpoint serves the mutant backend over the wire protocol
// in-process and returns an endpoint URL for the remote backend to dial.
// The server is closed when the test finishes.
func startRemoteEndpoint(t *testing.T) string {
	t.Helper()
	srv := remote.NewServer(remote.NewHandler(gen.NewMutant(), remote.ServerOptions{}))
	url, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("remote server close: %v", err)
		}
	})
	return url
}

// backendsUnderTest builds every row of core's backend table through
// core.New, each with a configuration this helper names explicitly. A
// row it has no configuration for fails the suite loudly, so a new
// backend cannot skip conformance. The remote backend is dialed against
// an in-process wire server over the mutant backend, so the whole
// transport stack rides through every conformance test.
func backendsUnderTest(t *testing.T) map[string]gen.Backend {
	t.Helper()
	out := map[string]gen.Backend{}
	for _, name := range core.BackendNames() {
		cfg := core.Config{Backend: name, Seed: 11}
		switch name {
		case "family":
			cfg.CorpusFiles = 25
		case "mutant":
		case "replay":
			cfg.Replay = recordForReplay(t)
		case "remote":
			cfg.Remote = remote.Options{
				Endpoint: startRemoteEndpoint(t),
				Timeout:  5 * time.Second,
				Seed:     confSeed,
			}
		default:
			t.Fatalf("backend %q has no conformance configuration; add a case for it", name)
		}
		fw, err := core.New(cfg)
		if err != nil {
			t.Fatalf("backend %q failed to construct: %v", name, err)
		}
		out[name] = fw.Backend
	}
	return out
}

func TestConformanceVariantsNonEmpty(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		if len(b.Variants()) == 0 {
			t.Errorf("%s: Variants() empty", name)
		}
		if b.Describe() == "" {
			t.Errorf("%s: Describe() empty", name)
		}
	}
}

// TestConformanceDeterministicSamples pins the purity contract: Complete
// at fixed coordinates returns the identical Sample every time, for every
// backend in the table.
func TestConformanceDeterministicSamples(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		key := b.Variants()[0]
		for _, pn := range []int{1, 6} {
			p := problems.ByNumber(pn)
			for _, temp := range []float64{0.1, 1.0} {
				for idx := 0; idx < 3; idx++ {
					s1, ok1 := b.Complete(key, p, problems.LevelLow, temp, idx, 777)
					s2, ok2 := b.Complete(key, p, problems.LevelLow, temp, idx, 777)
					if ok1 != ok2 || s1 != s2 {
						t.Fatalf("%s: sample (p%d t%.1f i%d) not deterministic:\n%+v ok=%v\n%+v ok=%v",
							name, pn, temp, idx, s1, ok1, s2, ok2)
					}
				}
			}
		}
	}
}

// TestConformanceWorkerWidthIdentity runs the probe sweep through the
// real engine at pool widths 1 and 8 and requires bit-identical
// CellStats (including float latency sums) from every backend.
func TestConformanceWorkerWidthIdentity(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		qs := confQueries(t, b)
		var base []eval.CellStats
		for _, workers := range []int{1, 8} {
			r := eval.NewRunner(b, confSeed)
			r.Workers = workers
			got := r.EvaluateBatch(qs)
			if base == nil {
				base = got
				// the sweep must actually produce samples, or the identity
				// check would pass vacuously on an all-empty backend
				total := 0
				for _, st := range got {
					total += st.Samples
				}
				if total == 0 {
					t.Fatalf("%s: probe sweep produced no samples", name)
				}
				continue
			}
			for qi := range qs {
				if got[qi] != base[qi] {
					t.Fatalf("%s: query %d diverges across widths: %+v != %+v",
						name, qi, got[qi], base[qi])
				}
			}
		}
	}
}

// TestConformanceConcurrentComplete hammers Complete from 8 goroutines
// against precomputed expectations — the direct data-race probe for the
// -race job.
func TestConformanceConcurrentComplete(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		key := b.Variants()[0]
		p := problems.ByNumber(6)
		type coord struct {
			idx  int
			temp float64
		}
		var coords []coord
		expect := map[coord]gen.Sample{}
		for _, temp := range []float64{0.1, 1.0} {
			for idx := 0; idx < 4; idx++ {
				c := coord{idx: idx, temp: temp}
				coords = append(coords, c)
				if s, ok := b.Complete(key, p, problems.LevelLow, temp, idx, 777); ok {
					expect[c] = s
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for _, c := range coords {
						s, ok := b.Complete(key, p, problems.LevelLow, c.temp, c.idx, 777)
						want, wantOK := expect[c]
						if ok != wantOK || (ok && s != want) {
							t.Errorf("%s: concurrent sample drifted at %+v", name, c)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// confRequests builds a small batch of completion requests on the
// backend's first variant.
func confRequests(b gen.Backend, n int) []gen.Request {
	key := b.Variants()[0]
	var reqs []gen.Request
	for idx := 0; idx < n; idx++ {
		p := problems.ByNumber(1 + (idx%2)*5) // alternate problems 1 and 6
		reqs = append(reqs, gen.Request{
			Key: key, Problem: p, Level: problems.LevelLow,
			Temperature: 0.1 + 0.9*float64(idx%2), SampleIdx: idx / 2, BaseSeed: 777,
		})
	}
	return reqs
}

// batchBackendsUnderTest filters the backend table for backends implementing
// the optional batch interface. At least the remote backend must — if
// the filter comes back empty the batch conformance tests are passing
// vacuously, which is itself a failure.
func batchBackendsUnderTest(t *testing.T) map[string]gen.BatchBackend {
	t.Helper()
	out := map[string]gen.BatchBackend{}
	for name, b := range backendsUnderTest(t) {
		if bb, ok := b.(gen.BatchBackend); ok {
			out[name] = bb
		}
	}
	if len(out) == 0 {
		t.Fatal("no backend in the table implements gen.BatchBackend; batch conformance is vacuous")
	}
	return out
}

// TestConformanceBatchSingleEquivalence pins the BatchBackend contract:
// CompleteBatch must return, slot for slot, exactly what Complete
// returns at the same coordinates — same samples, same declines.
func TestConformanceBatchSingleEquivalence(t *testing.T) {
	for name, bb := range batchBackendsUnderTest(t) {
		reqs := confRequests(bb, 8)
		res := bb.CompleteBatch(context.Background(), reqs)
		if len(res) != len(reqs) {
			t.Fatalf("%s: %d results for %d requests", name, len(res), len(reqs))
		}
		for i, q := range reqs {
			if res[i].Err != nil {
				t.Fatalf("%s: slot %d errored on a healthy backend: %v", name, i, res[i].Err)
			}
			s, ok := bb.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
			if ok != res[i].OK || (ok && s != res[i].Sample) {
				t.Fatalf("%s: slot %d diverges from single-call path:\nbatch  %+v ok=%v\nsingle %+v ok=%v",
					name, i, res[i].Sample, res[i].OK, s, ok)
			}
		}
	}
}

// TestConformanceBatchPartialFailureIsolation pins per-request failure
// isolation: an unservable request in the middle of a batch must not
// perturb its siblings' results.
func TestConformanceBatchPartialFailureIsolation(t *testing.T) {
	for name, bb := range batchBackendsUnderTest(t) {
		reqs := confRequests(bb, 3)
		reqs[1].Problem = &problems.Problem{Number: 999} // not in the problem set
		res := bb.CompleteBatch(context.Background(), reqs)
		if len(res) != len(reqs) {
			t.Fatalf("%s: %d results for %d requests", name, len(res), len(reqs))
		}
		for _, i := range []int{0, 2} {
			q := reqs[i]
			s, ok := bb.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
			if res[i].Err != nil || ok != res[i].OK || (ok && s != res[i].Sample) {
				t.Fatalf("%s: sibling slot %d was poisoned by the failed request: %+v", name, i, res[i])
			}
		}
		if res[1].OK {
			t.Fatalf("%s: unservable request came back OK: %+v", name, res[1])
		}
		if name == "remote" && res[1].Err == nil {
			t.Fatalf("%s: server-side failure should surface as a per-slot error", name)
		}
	}
}

// TestConformanceConcurrentCompleteBatch hammers CompleteBatch from 8
// goroutines against precomputed expectations — the batch-path data-race
// probe for the -race job.
func TestConformanceConcurrentCompleteBatch(t *testing.T) {
	for name, bb := range batchBackendsUnderTest(t) {
		reqs := confRequests(bb, 6)
		want := bb.CompleteBatch(context.Background(), reqs)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got := bb.CompleteBatch(context.Background(), reqs)
					for i := range reqs {
						if got[i].Err != nil || got[i] != want[i] {
							t.Errorf("%s: concurrent batch slot %d drifted: %+v != %+v", name, i, got[i], want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestConformanceBatchCompositionIdentity runs the probe sweep (24 work
// items) through the engine at one worker and at four, at batch sizes 1,
// 3, 7 (which leaves a short last batch) and 16, and requires
// bit-identical CellStats: how work is cut into batches must never reach
// the output bytes.
func TestConformanceBatchCompositionIdentity(t *testing.T) {
	for name, bb := range batchBackendsUnderTest(t) {
		qs := confQueries(t, bb)
		var base []eval.CellStats
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 3, 7, 16} {
				r := eval.NewRunner(bb, confSeed)
				r.Workers = workers
				r.BatchSize = batch
				got := r.EvaluateBatch(qs)
				if base == nil {
					base = got
					continue
				}
				for qi := range qs {
					if got[qi] != base[qi] {
						t.Fatalf("%s: query %d diverges at %d workers, batch size %d: %+v != %+v",
							name, qi, workers, batch, got[qi], base[qi])
					}
				}
			}
		}
	}
}

// TestRecorderCompleteBatch pins the Recorder's batch path: wrapping a
// single-call backend, CompleteBatch must fall back to per-request
// Complete calls and still record every served sample for replay.
func TestRecorderCompleteBatch(t *testing.T) {
	src := gen.NewMutant()
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := gen.NewRecorder(src, f)
	reqs := confRequests(src, 6)
	res := rec.CompleteBatch(context.Background(), reqs)
	for i, q := range reqs {
		s, ok := src.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
		if res[i].Err != nil || ok != res[i].OK || (ok && s != res[i].Sample) {
			t.Fatalf("recorder batch slot %d diverges from inner backend: %+v", i, res[i])
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	replay, err := gen.NewReplay(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range reqs {
		if !res[i].OK {
			continue
		}
		s, ok := replay.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
		if !ok || s != res[i].Sample {
			t.Fatalf("batch-recorded sample %d does not replay: %+v ok=%v", i, s, ok)
		}
	}
}

// TestServeBatch pins the one batch-serving rule for a single-call
// backend: each slot is what Complete returns at its coordinates, and a
// cancelled context fails every slot without drawing a sample.
func TestServeBatch(t *testing.T) {
	src := gen.NewMutant()
	reqs := confRequests(src, 6)
	for i, res := range gen.ServeBatch(context.Background(), src, reqs) {
		q := reqs[i]
		s, ok := src.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
		if res.Err != nil || res.OK != ok || res.Sample != s {
			t.Fatalf("slot %d = %+v, want the Complete sample %+v ok=%v", i, res, s, ok)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range gen.ServeBatch(ctx, src, reqs) {
		if res.Err == nil || res.OK {
			t.Fatalf("slot %d served under a cancelled context: %+v", i, res)
		}
	}
}

// TestReplayDescribeDigestsContent pins the distributed-sweep identity
// property: recordings that differ in any sample content must carry
// different Describe() tags (the tag is what wire.MergePartial and plan
// validation compare), while a reordered copy of the same recording must
// carry the same tag.
func TestReplayDescribeDigestsContent(t *testing.T) {
	lineA := `{"model":"m","variant":"PT","problem":1,"level":0,"temp_milli":100,"sample":0,"completion":"  assign y = a;\nendmodule\n","latency":1}`
	lineB := `{"model":"m","variant":"PT","problem":2,"level":0,"temp_milli":100,"sample":0,"completion":"  assign y = b;\nendmodule\n","latency":1}`
	lineB2 := `{"model":"m","variant":"PT","problem":2,"level":0,"temp_milli":100,"sample":0,"completion":"  assign y = ~b;\nendmodule\n","latency":1}`

	load := func(text string) *gen.Replay {
		t.Helper()
		r, err := gen.NewReplay(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ab := load(lineA + "\n" + lineB + "\n")
	ba := load(lineB + "\n" + lineA + "\n")
	ab2 := load(lineA + "\n" + lineB2 + "\n")
	if ab.Describe() != ba.Describe() {
		t.Errorf("line order changed the identity tag:\n%s\n%s", ab.Describe(), ba.Describe())
	}
	if ab.Describe() == ab2.Describe() {
		t.Errorf("recordings with different completions share the identity tag %q", ab.Describe())
	}
}
