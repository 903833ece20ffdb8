// Bring-your-own-backend: plug an arbitrary completion source into the
// evaluation stack as a gen.Backend. This is the downstream-adoption
// path: implement four methods, hand the value to eval.NewRunner, and the
// full engine — worker pool, outcome cache, sweeps, pass@k — runs your
// model exactly as it runs the paper's line-up. The demo also records one
// backend's samples to JSONL and replays them, showing the transcript
// path real LLM evaluations use.
package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// templateBackend is a toy "model": it answers every problem with a
// continuous-assignment template, so it solves wires and gates but
// nothing sequential. One struct, four methods — that is the whole
// integration surface.
type templateBackend struct{}

func (templateBackend) Describe() string { return "assign-template-v0" }

// Prepare returns nil: the template has no model to train up front.
func (templateBackend) Prepare([]gen.Key, []*problems.Problem) []func() { return nil }

func (templateBackend) Variants() []gen.Key {
	return []gen.Key{{Model: "assign-template", Variant: gen.VariantPT}}
}

func (templateBackend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (gen.Sample, bool) {
	prompt := p.Prompt(level)
	// look only at the module header, not the prose comments
	if i := strings.Index(prompt, "module "); i >= 0 {
		prompt = prompt[i:]
	}
	// wire together the first two port-ish identifiers it can find
	var out, in string
	for _, tok := range strings.Fields(strings.ReplaceAll(prompt, ",", " ")) {
		tok = strings.Trim(tok, "();")
		switch tok {
		case "out", "y", "sum", "z", "f":
			if out == "" {
				out = tok
			}
		case "in", "a", "x":
			if in == "" {
				in = tok
			}
		}
	}
	if out == "" || in == "" {
		return gen.Sample{Completion: "  // no idea\nendmodule\n", Mechanism: "give-up"}, true
	}
	return gen.Sample{
		Completion: fmt.Sprintf("  assign %s = %s;\nendmodule\n", out, in),
		Mechanism:  "template",
	}, true
}

// oracleBackend answers with the reference solution: an upper bound.
type oracleBackend struct{}

func (oracleBackend) Describe() string                                { return "oracle" }
func (oracleBackend) Prepare([]gen.Key, []*problems.Problem) []func() { return nil }
func (oracleBackend) Variants() []gen.Key {
	return []gen.Key{{Model: "oracle", Variant: gen.VariantPT}}
}
func (oracleBackend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (gen.Sample, bool) {
	return gen.Sample{Completion: p.RefBody, Mechanism: "reference"}, true
}

// score sweeps one backend over the whole benchmark through the real
// parallel evaluation engine and prints its scorecard.
func score(b gen.Backend) {
	r := eval.NewRunner(b, 1)
	id, v := queryIdentity(b.Variants()[0])
	var qs []eval.Query
	for _, p := range problems.All() {
		qs = append(qs, eval.Query{
			Model: id, Variant: v,
			Problem: p, Level: problems.LevelMedium, Temperature: 0.1, N: 1,
		})
	}
	st := eval.CellStats{}
	perDifficulty := map[problems.Difficulty]*eval.CellStats{}
	for _, d := range problems.Difficulties {
		perDifficulty[d] = &eval.CellStats{}
	}
	for qi, cell := range r.EvaluateBatch(qs) {
		st.Add(cell)
		perDifficulty[qs[qi].Problem.Difficulty].Add(cell)
	}
	fmt.Printf("\n%s:\n", b.Describe())
	fmt.Printf("  compile rate:    %.2f\n", st.CompileRate())
	fmt.Printf("  functional rate: %.2f\n", st.PassRate())
	fmt.Printf("  pass@1 estimate: %.2f\n", eval.PassAtKFromCell(st, 1))
	for _, d := range problems.Difficulties {
		fmt.Printf("  %-13s pass %.2f\n", d.String()+":", perDifficulty[d].PassRate())
	}
}

func main() {
	fmt.Println("Custom generation backends on the VGen benchmark")
	fmt.Println("================================================")
	score(templateBackend{})
	score(oracleBackend{})

	// Record the oracle's sweep to JSONL, then replay the transcript as a
	// backend of its own — the same mechanism that lets the harness score
	// completions captured from a real LLM.
	var buf bytes.Buffer
	rec := gen.NewRecorder(oracleBackend{}, &buf)
	score(rec)
	if err := rec.Flush(); err != nil {
		panic(err)
	}
	replayed, err := gen.NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nrecorded %d samples; replaying the transcript:\n", replayed.Len())
	score(replayed)
	firstLine, _, _ := strings.Cut(buf.String(), "\n")
	fmt.Printf("\nfirst JSONL record: %.110s...\n", firstLine)
}

// queryIdentity maps a backend key onto the typed query coordinates the
// engine hashes into its sample seeds.
func queryIdentity(k gen.Key) (model.ID, model.Variant) {
	v, ok := gen.ParseVariant(k.Variant)
	if !ok {
		panic("unknown variant string " + k.Variant)
	}
	return model.ID(k.Model), v
}
