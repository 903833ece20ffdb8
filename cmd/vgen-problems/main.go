// Command vgen-problems lists the 17-problem benchmark (Table II), dumps
// prompts and test benches, and self-checks every reference solution on
// the built-in simulator.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/problems"
	"repro/internal/verdict"
)

func main() {
	num := flag.Int("n", 0, "problem number to dump (0 = list all)")
	level := flag.String("level", "L", "prompt level to dump: L, M or H")
	check := flag.Bool("check", false, "run every reference solution against its test bench")
	showTB := flag.Bool("tb", false, "include the test bench in the dump")
	flag.Parse()

	if *check {
		failed := 0
		for _, p := range problems.All() {
			o := verdict.Evaluate(p, problems.LevelLow, p.RefBody)
			status := "PASS"
			if !o.Passes {
				status = "FAIL"
				failed++
			}
			fmt.Printf("problem %2d %-18s %s\n", p.Number, p.Slug, status)
		}
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	if *num == 0 {
		fmt.Printf("%-7s %-13s %s\n", "Prob.#", "Difficulty", "Description")
		for _, p := range problems.All() {
			fmt.Printf("%-7d %-13s %s\n", p.Number, p.Difficulty, p.Description)
		}
		return
	}

	p := problems.ByNumber(*num)
	if p == nil {
		fmt.Fprintf(os.Stderr, "no problem %d\n", *num)
		os.Exit(2)
	}
	var lvl problems.Level
	switch *level {
	case "L", "l":
		lvl = problems.LevelLow
	case "M", "m":
		lvl = problems.LevelMedium
	case "H", "h":
		lvl = problems.LevelHigh
	default:
		fmt.Fprintf(os.Stderr, "bad level %q\n", *level)
		os.Exit(2)
	}
	fmt.Printf("// Problem %d (%s), difficulty %s, prompt level %s\n",
		p.Number, p.Slug, p.Difficulty, lvl)
	fmt.Println(p.Prompt(lvl))
	fmt.Println("// --- reference completion ---")
	fmt.Println(p.RefBody)
	if *showTB {
		fmt.Println("// --- test bench ---")
		fmt.Println(p.Testbench)
	}
}
