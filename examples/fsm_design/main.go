// FSM design walk-through: the paper's advanced FSM problems (Figs. 4-5).
// Shows the three prompt-detail levels for the '101' recognizer, then
// contrasts a correct ABRO completion with the paper's characteristic
// incorrect one (output not assigned to state SAB) under the real test
// bench.
package main

import (
	"fmt"
	"strings"

	"repro/internal/problems"
	"repro/internal/verdict"
)

func main() {
	fmt.Println("Advanced FSM problems (paper Figs. 4-5)")
	fmt.Println("=======================================")

	// Prompt levels for Problem 15 (sequence recognizer, paper Fig. 5).
	p15 := problems.ByNumber(15)
	for _, lvl := range problems.Levels {
		prompt := p15.Prompt(lvl)
		fmt.Printf("-- Problem 15 prompt %s: %d lines, %d chars\n",
			lvl, strings.Count(prompt, "\n"), len(prompt))
	}
	fmt.Println()

	// The ABRO FSM (paper Fig. 4). Correct completion per the prompt.
	p17 := problems.ByNumber(17)
	correct := p17.RefBody
	report(p17, "reference (Fig. 4b)", correct)

	// The paper's incorrect completion: z is not asserted in state SAB.
	broken := strings.Replace(correct,
		"assign z = (cur_state == SAB);",
		"assign z = (cur_state == IDLE && a && b) || (cur_state == IDLE && a);", 1)
	report(p17, "incorrect (Fig. 4c)", broken)

	// A near-miss that drops the SA arm: compiles, loses the a-then-b path.
	armless := strings.Replace(correct,
		`      SA: begin
        if (b) next_state = SAB;
        else next_state = SA;
      end
`, "", 1)
	report(p17, "dropped-arm mutant", armless)

	// A completion that does not even compile.
	report(p17, "truncated", correct[:len(correct)/2])
}

func report(p *problems.Problem, name, completion string) {
	o := verdict.Evaluate(p, problems.LevelHigh, completion)
	fmt.Printf("%-22s compiles=%-5v passes=%v\n", name+":", o.Compiles, o.Passes)
}
