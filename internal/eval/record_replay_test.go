package eval

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

func recordReplayQueries() []Query {
	mvs := []ModelVariant{
		{Model: model.CodeGen2B, Variant: model.FineTuned},
		{Model: model.Codex, Variant: model.Pretrained},
		{Model: model.Codex, Variant: model.FineTuned}, // unserved: stays empty through both paths
	}
	var qs []Query
	for _, mv := range mvs {
		for _, pn := range []int{2, 6} {
			for _, l := range []problems.Level{problems.LevelLow, problems.LevelMedium} {
				for _, temp := range []float64{0.1, 0.7} {
					qs = append(qs, Query{
						Model: mv.Model, Variant: mv.Variant,
						Problem: problems.ByNumber(pn), Level: l, Temperature: temp, N: 4,
					})
				}
			}
		}
	}
	return qs
}

// TestRecordReplayRoundTrip pins the transcript path end to end: sweep
// the family backend under a recorder, feed the captured JSONL to the
// replay backend, and require EvaluateBatch to reproduce the recorded
// CellStats exactly — at both pool widths, and under a *different*
// runner seed, since a recording is addressed purely by cell coordinates
// and must replay identically wherever it is mounted.
func TestRecordReplayRoundTrip(t *testing.T) {
	fam := model.NewFamily(model.Config{Seed: 9, CorpusFiles: 25})
	var buf bytes.Buffer
	rec := gen.NewRecorder(gen.NewFamilyBackend(fam), &buf)
	r := NewRunner(rec, 55)
	r.Workers = 4

	qs := recordReplayQueries()
	want := r.EvaluateBatch(qs)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}

	// Re-running the recorded sweep must not duplicate lines: the second
	// pass hits only already-seen coordinates.
	lines := strings.Count(buf.String(), "\n")
	r.EvaluateBatch(qs)
	if again := strings.Count(buf.String(), "\n"); again != lines {
		t.Fatalf("re-sweep grew the recording: %d -> %d lines", lines, again)
	}

	rp, err := gen.NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, seed := range []int64{55, 1234} {
			r2 := NewRunner(rp, seed)
			r2.Workers = workers
			got := r2.EvaluateBatch(qs)
			for qi := range qs {
				if got[qi] != want[qi] {
					t.Fatalf("workers=%d seed=%d query %d: replay %+v != recorded %+v",
						workers, seed, qi, got[qi], want[qi])
				}
			}
		}
	}

	// A query outside the recording replays as empty, never as invented
	// completions.
	off := Query{Model: model.CodeGen2B, Variant: model.FineTuned,
		Problem: problems.ByNumber(11), Level: problems.LevelLow, Temperature: 0.1, N: 4}
	if st := NewRunner(rp, 55).EvaluateBatch([]Query{off})[0]; st.Samples != 0 {
		t.Fatalf("unrecorded cell produced samples: %+v", st)
	}
}

// TestReplayRejectsMalformedRecording pins the loader's failure mode: a
// corrupt line is a loud error, not a silently shorter recording.
func TestReplayRejectsMalformedRecording(t *testing.T) {
	if _, err := gen.NewReplay(strings.NewReader("{\"model\":\"m\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line should fail the load")
	}
}
