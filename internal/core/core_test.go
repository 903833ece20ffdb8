package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

func testFW(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(Config{
		Seed:        3,
		CorpusFiles: 50,
		Sweep:       eval.SweepOptions{N: 3, Temperatures: []float64{0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestFrameworkWiring(t *testing.T) {
	f := testFW(t)
	if f.Family == nil || f.Runner == nil || f.Harness == nil {
		t.Fatal("framework incompletely wired")
	}
}

func TestEvaluateCompletionAPI(t *testing.T) {
	f := testFW(t)
	p := problems.ByNumber(4)
	o, err := f.EvaluateCompletion(4, problems.LevelLow, p.RefBody)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Compiles || !o.Passes {
		t.Fatalf("reference outcome = %+v", o)
	}
	o, err = f.EvaluateCompletion(4, problems.LevelLow, "  bogus\n")
	if err != nil || o.Compiles {
		t.Fatalf("broken completion outcome = %+v, err %v", o, err)
	}
	if _, err := f.EvaluateCompletion(99, problems.LevelLow, ""); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

// TestBackendSelectionAndRecordReplay exercises the facade's backend
// plumbing: select the mutant backend by name, record its sweep, then
// mount the recording through the replay backend and reproduce the
// stats exactly.
func TestBackendSelectionAndRecordReplay(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "mutant.jsonl")
	fw, err := New(Config{Seed: 5, Backend: "mutant", Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Family != nil {
		t.Error("non-family backend should leave Family nil")
	}
	q := eval.Query{
		Model: model.CodeGen16B, Variant: model.FineTuned, Problem: problems.ByNumber(6),
		Level: problems.LevelMedium, Temperature: 0.1, N: 5,
	}
	want := fw.Runner.EvaluateBatch([]eval.Query{q})[0]
	if want.Samples != 5 {
		t.Fatalf("recorded %d samples, want 5", want.Samples)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := New(Config{Seed: 5, Backend: "replay", Replay: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.Runner.EvaluateBatch([]eval.Query{q})[0]; got != want {
		t.Fatalf("replayed stats %+v != recorded %+v", got, want)
	}

	if _, err := New(Config{Backend: "replay"}); err == nil {
		t.Error("replay without a recording should fail construction")
	}
	if _, err := New(Config{Backend: "no-such"}); err == nil {
		t.Error("unknown backend name should fail construction")
	}
	found := false
	for _, name := range gen.Names() {
		if name == "mutant" {
			found = true
		}
	}
	if !found {
		t.Errorf("gen.Names() = %v, missing mutant", gen.Names())
	}
}

// TestWriteFileAtomic pins the crash-safety contract of every shard
// artifact: the payload lands under the final name only complete — a
// failed write leaves neither the target nor a lingering temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")

	boom := errors.New("disk on fire")
	if err := WriteFileAtomic(path, func(*os.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic error = %v, want %v", err, boom)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %v behind", ents)
	}

	if err := WriteFileAtomic(path, func(f *os.File) error {
		_, err := fmt.Fprintln(f, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "out.jsonl" {
		t.Fatalf("successful write left %v, want exactly out.jsonl", ents)
	}
}

// TestRunPlanFileCtxCancellation: a canceled worker must return the
// context's error and leave no result file (nor a temp) behind — the
// invariant that lets a coordinator treat "file exists and validates" as
// "shard done".
func TestRunPlanFileCtxCancellation(t *testing.T) {
	fw, err := New(Config{Seed: 11, Backend: "mutant"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.jsonl")
	if err := fw.WriteShardPlan(planPath, []string{"table3"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outPath := filepath.Join(dir, "out.jsonl")
	if err := fw.RunPlanFileCtx(ctx, planPath, outPath); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunPlanFileCtx returned %v", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "plan.jsonl" {
		t.Fatalf("canceled run left %v, want only plan.jsonl", ents)
	}
}

// TestRecordingDoesNotSplitShardIdentity pins the sweep-identity rule: a
// worker that also records (-record wraps the backend in a Recorder)
// must emit shards under the same backend tag as one that does not, or
// recorded and unrecorded shards of one sweep would refuse to merge.
func TestRecordingDoesNotSplitShardIdentity(t *testing.T) {
	dir := t.TempDir()
	plain, err := New(Config{Seed: 3, Backend: "mutant"})
	if err != nil {
		t.Fatal(err)
	}
	recording, err := New(Config{Seed: 3, Backend: "mutant", Record: filepath.Join(dir, "rec.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer recording.Close()

	exps := []string{"table3"}
	_, mPlain, err := plain.ShardPlan(exps, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, mRec, err := recording.ShardPlan(exps, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mPlain.Backend != mRec.Backend {
		t.Fatalf("recording split the sweep identity: %q vs %q", mPlain.Backend, mRec.Backend)
	}
}

// TestAblationFollowsCorpusFiles: the corpus ablation trains its families
// at the sweep's corpus size. Its GitHub-only family is then the main
// runner's family, so its cells equal the main runner's CodeGen-16B
// fine-tuned aggregate over the same sweep options, and so does the pass
// rate Ablation prints. The pass rate alone cannot tell corpus sizes
// apart (babble never passes), but the compile count can: at seed 3 the
// default 300-file family compiles 75 of these 102 samples, the 20-file
// family 77.
func TestAblationFollowsCorpusFiles(t *testing.T) {
	opts := eval.SweepOptions{N: 2, Temperatures: []float64{0.1, 0.5}}
	fw, err := New(Config{Seed: 3, CorpusFiles: 20, Sweep: opts, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	mv := eval.ModelVariant{Model: model.CodeGen16B, Variant: model.FineTuned}
	want := eval.Aggregate(fw.Runner, mv, opts)
	if gh, _ := fw.Harness.AblationStats(); gh != want {
		t.Errorf("ablation GitHub-only cells %+v, want the main runner's %+v", gh, want)
	}
	line := fmt.Sprintf("GitHub only:        %.3f\n", want.PassRate())
	if got := fw.Harness.Ablation(); !strings.Contains(got, line) {
		t.Errorf("ablation does not report the main runner's pass rate %q:\n%s", line, got)
	}
}
