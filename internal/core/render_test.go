package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/wire"
)

// renderCfg is a small sweep: few corpus files, two completions per
// prompt, two temperatures.
var renderCfg = Config{
	Seed:        3,
	CorpusFiles: 20,
	Sweep:       eval.SweepOptions{N: 2, Temperatures: []float64{0.1, 0.5}},
}

func newRenderFW(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(renderCfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestRenderMatchesShardsAndLive pins the plain run to both references
// it replaced: every cell artifact Render prints must be byte-identical
// to a 2-way sharded, merged render and to the live-Runner harness, with
// the non-cell artifacts in their registry slots.
func TestRenderMatchesShardsAndLive(t *testing.T) {
	fw := newRenderFW(t)
	var got bytes.Buffer
	rs, err := fw.Render(context.Background(), &got, "all")
	if err != nil {
		t.Fatal(err)
	}
	if missing := rs.Missing(); len(missing) != 0 {
		t.Fatalf("plain render left %d cells unserved, first %+v", len(missing), missing[0])
	}

	// Two fresh frameworks stand in for two worker processes.
	var shards []wire.Shard
	for i := 0; i < 2; i++ {
		set, m, err := newRenderFW(t).ExecuteShardCtx(context.Background(), []string{"all"}, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, wire.Shard{Meta: m, Set: set})
	}
	merged, _, missing, err := wire.MergePartial(shards)
	if err != nil || len(missing) > 0 {
		t.Fatal(err, missing)
	}

	nonCell := map[string]string{}
	for _, r := range harness.Renderers() {
		if !r.Cell {
			nonCell[r.Name] = r.Render(fw.Harness)
		}
	}
	for _, ref := range []struct {
		name string
		h    *harness.Harness
	}{
		{"2-way merged shards", harness.FromResults(merged, renderCfg.Sweep)},
		{"live-Runner harness", newRenderFW(t).Harness},
	} {
		var want strings.Builder
		for _, r := range harness.Renderers() {
			text, ok := nonCell[r.Name]
			if !ok {
				text = r.Render(ref.h)
			}
			want.WriteString(text + "\n")
		}
		if got.String() != want.String() {
			t.Errorf("Render differs from the %s:\ngot:\n%s\nwant:\n%s", ref.name, got.String(), want.String())
		}
	}
	if missing := merged.Missing(); len(missing) != 0 {
		t.Fatalf("merged shards left %d cells unserved, first %+v", len(missing), missing[0])
	}
}

// failCellBackend fails every sample of one cell with a produced error,
// as a remote transport out of retries does, and serves the rest from
// the wrapped backend.
type failCellBackend struct {
	gen.Backend
	cell eval.Query
}

func (b failCellBackend) CompleteBatch(ctx context.Context, reqs []gen.Request) []gen.BatchResult {
	key := gen.Key{Model: string(b.cell.Model), Variant: b.cell.Variant.String()}
	out := make([]gen.BatchResult, len(reqs))
	for i, rq := range reqs {
		if rq.Key == key && rq.Problem.Number == b.cell.Problem.Number &&
			rq.Level == b.cell.Level && rq.Temperature == b.cell.Temperature {
			out[i].Err = errors.New("injected: cell unserved")
			continue
		}
		out[i].Sample, out[i].OK = b.Backend.Complete(rq.Key, rq.Problem, rq.Level, rq.Temperature, rq.SampleIdx, rq.BaseSeed)
	}
	return out
}

// TestRenderReportsFailedCell pins the failed-cell contract of a plain
// run: the artifact still renders, and the unserved cell is listed by
// both Runner.Failures and the returned set's Missing.
func TestRenderReportsFailedCell(t *testing.T) {
	fw := newRenderFW(t)
	q := eval.Query{Model: model.CodeGen16B, Variant: model.FineTuned,
		Problem: problems.ByNumber(1), Level: problems.LevelLow, Temperature: 0.1, N: 2}
	fw.Runner.Backend = failCellBackend{Backend: fw.Backend, cell: q}
	cell := q.Coord()

	var out bytes.Buffer
	rs, err := fw.Render(context.Background(), &out, "table3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Table III:") {
		t.Fatalf("table3 did not render:\n%s", out.String())
	}
	if fails := fw.Runner.Failures(); len(fails) != 1 || fails[0].Coord != cell {
		t.Errorf("Runner.Failures() = %v, want only %+v", fails, cell)
	}
	if missing := rs.Missing(); len(missing) != 1 || missing[0] != cell {
		t.Errorf("rs.Missing() = %v, want only %+v", missing, cell)
	}
}

// TestRenderAllGolden pins every artifact of the paper run at default
// scale, live ones included, at seed 1 and at the holdout seed 2: the
// bytes `vgen-eval -experiment all -seed S` prints must hash to the
// seed's digest.
func TestRenderAllGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "98628d4f2fdbb57c303379a966b7e5911a586f7a7223faf52aaab31e716c9ac9"},
		{2, "a9779a4b13a5934a052e4fb05620b257a31b0e3ad94ad686f24b1b253dedade4"},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			fw, err := New(Config{Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := fw.Render(context.Background(), &buf, "all"); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
				t.Errorf("sha256 of the seed-%d \"all\" render = %s, want %s", tc.seed, got, tc.want)
			}
		})
	}
}
