package vlog_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/mutate"
	"repro/internal/problems"
	"repro/internal/vlog"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkPrefixed asserts that parsing completion after LexPrefix(prompt)
// is indistinguishable from Parse(prompt+completion): the same token
// stream (kind, text and position of every token), the same printed AST
// and the same error text. It reports whether the prompt's tokens were
// reused.
func checkPrefixed(t testing.TB, prompt, completion string) bool {
	t.Helper()
	src := prompt + completion
	pre := vlog.LexPrefix(prompt)

	wantToks, wantLexErr := vlog.LexAll(src)
	gotToks, reused, gotLexErr := vlog.PrefixTokens(pre, completion)
	if errText(gotLexErr) != errText(wantLexErr) {
		t.Errorf("lex error %q, want %q\nprompt: %q\ncompletion: %q", errText(gotLexErr), errText(wantLexErr), prompt, completion)
	}
	if !slices.Equal(gotToks, wantToks) {
		t.Errorf("token streams differ\nprompt: %q\ncompletion: %q\ngot:  %v\nwant: %v", prompt, completion, gotToks, wantToks)
	}

	wantF, wantErr := vlog.Parse(src)
	gotF, gotErr := vlog.ParsePrefixed(pre, completion)
	if errText(gotErr) != errText(wantErr) {
		t.Errorf("parse error %q, want %q\nprompt: %q\ncompletion: %q", errText(gotErr), errText(wantErr), prompt, completion)
	}
	if (gotF == nil) != (wantF == nil) {
		t.Errorf("AST presence differs (got %v, want %v)\nprompt: %q\ncompletion: %q", gotF != nil, wantF != nil, prompt, completion)
	} else if gotF != nil && vlog.Print(gotF) != vlog.Print(wantF) {
		t.Errorf("ASTs differ\nprompt: %q\ncompletion: %q\ngot:\n%s\nwant:\n%s", prompt, completion, vlog.Print(gotF), vlog.Print(wantF))
	}
	return reused
}

// TestParsePrefixedMatchesParse runs the differential over every
// byte-prefix of every reference body at every prompt level: the
// truncated, mid-token and mid-comment completions an LLM emits, on both
// the success and the error path.
func TestParsePrefixedMatchesParse(t *testing.T) {
	cases := 0
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			prompt := p.Prompt(l)
			for i := 0; i <= len(p.RefBody); i++ {
				if !checkPrefixed(t, prompt, p.RefBody[:i]) {
					t.Fatalf("problem %d/%s: prompt tokens were not reused", p.Number, l)
				}
				cases++
			}
			if t.Failed() {
				t.Fatalf("problem %d/%s diverged", p.Number, l)
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestParsePrefixedNearMisses runs the differential over mutated
// references: the near-miss candidates, both as a behavioural tail (how
// the model family completes a prompt) and as a whole second module.
func TestParsePrefixedNearMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range problems.All() {
		for i := 0; i < 6; i++ {
			res, err := mutate.Apply(p.ReferenceSource(), rng)
			if err != nil {
				continue
			}
			f, err := vlog.Parse(res.Source)
			if err != nil {
				t.Fatalf("problem %d: mutant does not parse: %v", p.Number, err)
			}
			tail := vlog.PrintItems(f.Modules[0].Items) + "endmodule\n"
			for _, l := range problems.Levels {
				checkPrefixed(t, p.Prompt(l), tail)
				checkPrefixed(t, p.Prompt(l), res.Source)
			}
		}
	}
}

// TestParsePrefixedFallback covers prompts that cannot be split from
// their completion: each must take the whole-text path and still match
// Parse, including where only the completion makes the text well-formed.
func TestParsePrefixedFallback(t *testing.T) {
	cases := []struct{ name, prompt, completion string }{
		{"no trailing newline", "module m(input a, output b);", "\n  assign b = a;\nendmodule\n"},
		{"empty prompt", "", "module m; endmodule\n"},
		{"unterminated block comment", "module m;\n/* opened here\n", "closed here */\nendmodule\n"},
		{"lex error", "module m;\n  wire $ w;\n", "endmodule\n"},
		{"escaped newline in string", "module m;\n  initial $display(\"a\\\n", "b\");\nendmodule\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if checkPrefixed(t, c.prompt, c.completion) {
				t.Errorf("prompt %q was split from its completion", c.prompt)
			}
		})
	}
	// the texts that only their completion closes must parse
	for _, i := range []int{2, 4} {
		c := cases[i]
		if _, err := vlog.ParsePrefixed(vlog.LexPrefix(c.prompt), c.completion); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestParsePrefixedConcurrent shares one Prefix across goroutines, as
// the evaluation workers do; under -race it pins that parsing only reads
// the prompt's tokens.
func TestParsePrefixedConcurrent(t *testing.T) {
	p := problems.ByNumber(17)
	pre := vlog.LexPrefix(p.Prompt(problems.LevelMedium))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(cut int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				completion := p.RefBody[:len(p.RefBody)*(cut+i)/(8+20)]
				want, wantErr := vlog.Parse(p.Prompt(problems.LevelMedium) + completion)
				got, gotErr := vlog.ParsePrefixed(pre, completion)
				if errText(gotErr) != errText(wantErr) || (got == nil) != (want == nil) ||
					got != nil && vlog.Print(got) != vlog.Print(want) {
					t.Errorf("completion %q: concurrent prefixed parse diverged", completion)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzParsePrefixed asserts the differential for arbitrary splits. The
// seeds split each problem's source where evaluation does, between the
// prompt and the reference body.
func FuzzParsePrefixed(f *testing.F) {
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			f.Add(p.Prompt(l), p.RefBody)
		}
	}
	f.Add("\n", "module m; endmodule")
	f.Add("module m;\n", "/* unterminated")
	f.Fuzz(func(t *testing.T, prefix, rest string) {
		checkPrefixed(t, prefix, rest)
	})
}

func ExampleParsePrefixed() {
	pre := vlog.LexPrefix("module inv(input a, output y);\n")
	_, err := vlog.ParsePrefixed(pre, "  assign y = ~a\nendmodule\n")
	fmt.Println(err)
	// Output: 3:1: syntax error: expected ";", found "endmodule"
}
