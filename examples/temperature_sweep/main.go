// Temperature sweep: a small-scale reproduction of paper Fig. 6 — the
// pass rate is highest at t=0.1 and decays as sampling temperature rises.
package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
)

func main() {
	fmt.Println("Pass@(scenario*n) vs temperature (paper Fig. 6, left)")
	fmt.Println("=====================================================")

	fw, err := core.New(core.Config{
		Seed:        9,
		CorpusFiles: 60,
		Sweep:       eval.SweepOptions{N: 6},
	})
	if err != nil {
		panic(err)
	}

	for _, mv := range []eval.ModelVariant{
		{Model: model.CodeGen16B, Variant: model.FineTuned},
		{Model: model.CodeGen2B, Variant: model.FineTuned},
		{Model: model.Codex, Variant: model.Pretrained},
	} {
		series := eval.TemperatureSeries(fw.Runner, mv, eval.SweepOptions{N: 6})
		fmt.Printf("%-18s %s ", mv.Model, mv.Variant)
		for i, t := range eval.Temperatures {
			fmt.Printf(" t=%.1f:%.3f", t, series[i])
		}
		fmt.Println()
		fmt.Printf("%22s %s\n", "", spark(series))
	}
	fmt.Println("\nhigher temperature -> fewer passing completions, as in the paper")
}

// spark renders a tiny text bar chart.
func spark(vals []float64) string {
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return strings.Repeat("_", len(vals))
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range vals {
		idx := int(v / maxV * float64(len(levels)-1))
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
