package remote

// The fault-matrix suite: for every injected fault class the remote
// sweep must either converge to CellStats byte-identical to the
// monolithic family run, or degrade to explicitly failed cells that the
// plan path records as missing — never a silent gap, never a hung
// worker, and (checked below) no leaked goroutines. Meaningful under
// `go test -race`, which the Makefile race target and the CI
// remote-faults job run.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

const testSeed = 55

// familyBackend builds the small-corpus simulated family — the backend
// the ISSUE's byte-identity criterion is stated against.
func familyBackend(t *testing.T) gen.Backend {
	t.Helper()
	b, err := gen.New("family", gen.Options{Family: model.Config{Seed: 11, CorpusFiles: 25}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// probeQueries is the sweep the suite compares across transports: two
// problems, two levels, two temperatures, three samples.
func probeQueries(t *testing.T, b gen.Backend) []eval.Query {
	t.Helper()
	k := b.Variants()[0]
	v, ok := gen.ParseVariant(k.Variant)
	if !ok {
		t.Fatalf("unknown variant %q", k.Variant)
	}
	var qs []eval.Query
	for _, pn := range []int{1, 6} {
		for _, l := range []problems.Level{problems.LevelLow, problems.LevelMedium} {
			for _, temp := range []float64{0.1, 1.0} {
				qs = append(qs, eval.Query{
					Model: model.ID(k.Model), Variant: v,
					Problem: problems.ByNumber(pn), Level: l, Temperature: temp, N: 3,
				})
			}
		}
	}
	return qs
}

// startFaultServer serves backend b behind plan and returns the
// endpoint, the FaultServer for attempt inspection, and the Server so
// leak-checking tests can close it mid-test (Close is idempotent; a
// cleanup closes it regardless).
func startFaultServer(t *testing.T, b gen.Backend, plan *FaultPlan, opts ServerOptions) (string, *FaultServer, *Server) {
	t.Helper()
	fs := NewFaultServer(b, plan, opts)
	srv := NewServer(fs)
	url, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return url, fs, srv
}

// fastConfig is a test transport config with tight timeouts (hangs and
// drips resolve in tens of milliseconds) and the breaker effectively
// disabled — breaker behavior has its own tests, and tripping it here
// would turn a bounded-retry test into a cooldown race.
func fastConfig(url string) gen.RemoteOptions {
	return gen.RemoteOptions{
		Endpoint:         url,
		Timeout:          250 * time.Millisecond,
		MaxAttempts:      4,
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
		BreakerThreshold: 1 << 20,
		Seed:             testSeed,
	}
}

func remoteBackend(t *testing.T, cfg gen.RemoteOptions) gen.Backend {
	t.Helper()
	b, err := NewBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.(*backend).t.client.CloseIdleConnections() })
	return b
}

// settleGoroutines waits for the goroutine count to return to the
// baseline; a count still above it after the grace period is a leak.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestFaultMatrixConvergence is the acceptance gate: with every
// coordinate's first exchange broken by each fault class in turn, the
// remote sweep must retry its way to CellStats byte-identical to the
// monolithic run, with zero degraded cells and zero leaked goroutines.
func TestFaultMatrixConvergence(t *testing.T) {
	fam := familyBackend(t)
	qs := probeQueries(t, fam)
	base := eval.NewRunner(fam, testSeed)
	base.Workers = 4
	want := base.EvaluateBatch(qs)

	kinds := []FaultKind{Fault5xx, FaultHang, FaultReset, FaultTruncate, FaultCorrupt, FaultSlowDrip}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			plan := NewFaultPlan().Set(AnyCoord, 1, kind)
			url, fs, srv := startFaultServer(t, fam, plan, ServerOptions{})
			rb := remoteBackend(t, fastConfig(url))

			r := eval.NewRunner(rb, testSeed)
			r.Workers = 4
			r.BatchSize = 4
			got := r.EvaluateBatch(qs)

			if fails := r.Failures(); len(fails) != 0 {
				t.Fatalf("expected full convergence, got %d degraded cells (first: %+v)", len(fails), fails[0])
			}
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("query %d diverged from monolithic run under %s: %+v != %+v", i, kind, got[i], want[i])
				}
			}
			// Retries really happened: the first coordinate saw more than
			// one exchange.
			v := rb.Variants()[0]
			k := wireReqKey(wireRequest{
				Model: v.Model, Variant: v.Variant, Problem: qs[0].Problem.Number,
				Level: int(qs[0].Level), Temperature: qs[0].Temperature,
			})
			if fs.Attempts(k) < 2 {
				t.Fatalf("coordinate %s saw %d exchanges; the fault was never injected", k, fs.Attempts(k))
			}

			rb.(*backend).t.client.CloseIdleConnections()
			if err := srv.Close(); err != nil {
				t.Fatalf("server close: %v", err)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestPersistentFaultDegradesToMissing pins graceful degradation: a
// server that fails every exchange must cost every cell — reported
// through Failures, recorded as missing by the plan path — without
// aborting the sweep, hanging a worker, or leaking a goroutine.
func TestPersistentFaultDegradesToMissing(t *testing.T) {
	before := runtime.NumGoroutine()
	fam := familyBackend(t)
	qs := probeQueries(t, fam)

	plan := NewFaultPlan().Set(AnyCoord, AnyAttempt, Fault5xx)
	// Info must survive construction, so exempt it from the blanket fault.
	plan.Set(InfoKey, AnyAttempt, FaultNone)
	url, _, srv := startFaultServer(t, fam, plan, ServerOptions{})
	cfg := fastConfig(url)
	cfg.MaxAttempts = 2
	rb := remoteBackend(t, cfg)

	r := eval.NewRunner(rb, testSeed)
	r.Workers = 4
	r.BatchSize = 4

	p := eval.NewPlan()
	for _, q := range qs {
		if err := p.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := r.RunPlanCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("a degraded sweep must not abort: %v", err)
	}
	if rs.Len() != 0 {
		t.Fatalf("no cell could have been served, yet %d were stored", rs.Len())
	}
	if fails := r.Failures(); len(fails) != len(qs) {
		t.Fatalf("want %d degraded cells, got %d", len(qs), len(fails))
	}
	// The partial-result path sees the gap: every planned cell is missing.
	rs.Cells(qs)
	if missing := rs.Missing(); len(missing) != len(qs) {
		t.Fatalf("want %d missing cells, got %d", len(qs), len(missing))
	}

	rb.(*backend).t.client.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	settleGoroutines(t, before)
}

// TestPartialBatchFailureIsolation pins the per-request error channel:
// one unservable request in a batch must not poison its siblings.
func TestPartialBatchFailureIsolation(t *testing.T) {
	fam := familyBackend(t)
	url, _, _ := startFaultServer(t, fam, NewFaultPlan(), ServerOptions{})
	rb := remoteBackend(t, fastConfig(url))

	k := rb.Variants()[0]
	good := problems.ByNumber(1)
	bogus := &problems.Problem{Number: 999} // no such problem on the server
	reqs := []gen.Request{
		{Key: k, Problem: good, Level: problems.LevelLow, Temperature: 0.1, SampleIdx: 0, BaseSeed: 777},
		{Key: k, Problem: bogus, Level: problems.LevelLow, Temperature: 0.1, SampleIdx: 0, BaseSeed: 777},
		{Key: k, Problem: good, Level: problems.LevelLow, Temperature: 0.1, SampleIdx: 1, BaseSeed: 777},
	}
	res := rb.(gen.BatchBackend).CompleteBatch(context.Background(), reqs)
	if len(res) != 3 {
		t.Fatalf("want 3 results, got %d", len(res))
	}
	if res[0].Err != nil || !res[0].OK || res[2].Err != nil || !res[2].OK {
		t.Fatalf("siblings of a failed request were poisoned: %+v / %+v", res[0], res[2])
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "no problem 999") {
		t.Fatalf("bad request should carry its own error, got %+v", res[1])
	}
	// And the failed slot matches what Complete would do locally: the
	// good ones are the same samples the direct backend serves.
	if s, ok := fam.Complete(k, good, problems.LevelLow, 0.1, 0, 777); !ok || s != res[0].Sample {
		t.Fatalf("remote sample diverges from direct: %+v != %+v", res[0].Sample, s)
	}
}

// TestRemoteRecordReplay proves the auto-record pairing end to end: a
// recorded remote sweep replays offline — no server at all — into
// byte-identical CellStats.
func TestRemoteRecordReplay(t *testing.T) {
	fam := familyBackend(t)
	qs := probeQueries(t, fam)
	plan := NewFaultPlan().Set(AnyCoord, 1, Fault5xx) // record through retries, too
	url, _, _ := startFaultServer(t, fam, plan, ServerOptions{})
	rb := remoteBackend(t, fastConfig(url))

	var buf bytes.Buffer
	rec := gen.NewRecorder(rb, &buf)
	r := eval.NewRunner(rec, testSeed)
	r.Workers = 4
	r.BatchSize = 4
	want := r.EvaluateBatch(qs)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("recording run degraded: %+v", r.Failures())
	}

	replay, err := gen.NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2 := eval.NewRunner(replay, testSeed)
	r2.Workers = 4
	got := r2.EvaluateBatch(qs)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("replayed cell %d diverges: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestAuthRequired pins both auth directions: a matching bearer token
// passes; a missing one is rejected at construction (the /v1/info dial),
// without retrying — a wrong token never heals.
func TestAuthRequired(t *testing.T) {
	fam := familyBackend(t)
	url, fs, _ := startFaultServer(t, fam, NewFaultPlan(), ServerOptions{AuthToken: "sesame"})

	cfg := fastConfig(url)
	cfg.AuthToken = "sesame"
	rb := remoteBackend(t, cfg)
	if len(rb.Variants()) == 0 {
		t.Fatal("authorized client should see the variant line-up")
	}

	bad := fastConfig(url)
	attemptsBefore := fs.Attempts(InfoKey)
	if _, err := NewBackend(bad); err == nil {
		t.Fatal("tokenless client should be rejected")
	} else if !strings.Contains(err.Error(), "401") {
		t.Fatalf("rejection should carry the 401, got: %v", err)
	}
	if got := fs.Attempts(InfoKey) - attemptsBefore; got != 1 {
		t.Fatalf("401 must not be retried: %d attempts", got)
	}
}

// TestBudgetExhaustion pins the sweep-level budget: against a hanging
// server, a tiny budget fails requests with an explicit budget error
// instead of grinding through per-attempt timeouts.
func TestBudgetExhaustion(t *testing.T) {
	fam := familyBackend(t)
	url, _, _ := startFaultServer(t, fam, NewFaultPlan(), ServerOptions{})
	cfg := fastConfig(url)
	rb := remoteBackend(t, cfg) // construct (info dial) before the budget transport

	// A second transport with a 1ms budget: by the time a request runs,
	// the budget is gone.
	cfg.Budget = time.Millisecond
	tr, err := NewTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	k := rb.Variants()[0]
	res := tr.CompleteBatch(context.Background(), []gen.Request{
		{Key: k, Problem: problems.ByNumber(1), Level: problems.LevelLow, Temperature: 0.1, SampleIdx: 0, BaseSeed: 1},
	})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "budget") {
		t.Fatalf("want budget-exhausted error, got %+v", res[0])
	}
	tr.client.CloseIdleConnections()
}

// TestConcurrentCompleteBatch hammers the batch path from 8 goroutines
// (the -race probe) and requires every call to agree with the direct
// backend.
func TestConcurrentCompleteBatch(t *testing.T) {
	fam := familyBackend(t)
	url, _, _ := startFaultServer(t, fam, NewFaultPlan(), ServerOptions{})
	rb := remoteBackend(t, fastConfig(url)).(gen.BatchBackend)

	k := rb.Variants()[0]
	p := problems.ByNumber(6)
	var reqs []gen.Request
	for idx := 0; idx < 6; idx++ {
		reqs = append(reqs, gen.Request{Key: k, Problem: p, Level: problems.LevelLow, Temperature: 1.0, SampleIdx: idx, BaseSeed: 777})
	}
	want := rb.CompleteBatch(context.Background(), reqs)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for rep := 0; rep < 3; rep++ {
				got := rb.CompleteBatch(context.Background(), reqs)
				for i := range reqs {
					if got[i].Err != nil || got[i] != want[i] {
						done <- fmt.Errorf("slot %d drifted: %+v != %+v", i, got[i], want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
