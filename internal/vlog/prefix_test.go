package vlog_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// stream (kind, text and position of every token), the same AST down to
// the position of every node, and the same error text. ParsePrefixed
// builds no error, so the error text is compared through
// ParsePrefixedErr, and ParsePrefixed must fail exactly where Parse does
// and return the same AST. It reports whether the prompt's parsed head
// was reused. Behind a prompt LexPrefix splits, a completion without
// the text endmodule must fail: the rule that lets the verdict path
// reject such a completion unparsed (Prefix.Split).
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
	gotF, gotErr := vlog.ParsePrefixedErr(pre, completion)
	if errText(gotErr) != errText(wantErr) {
		t.Errorf("parse error %q, want %q\nprompt: %q\ncompletion: %q", errText(gotErr), errText(wantErr), prompt, completion)
	}
	shipF, ok := vlog.ParsePrefixed(pre, completion)
	if ok != (wantErr == nil) || !reflect.DeepEqual(shipF, gotF) {
		t.Errorf("ParsePrefixed: ok %v and its AST differ from ParsePrefixedErr's (error %q)\nprompt: %q\ncompletion: %q",
			ok, errText(gotErr), prompt, completion)
	}
	if pre.Split() && !strings.Contains(completion, "endmodule") && (gotErr == nil || ok) {
		t.Errorf("a completion without endmodule parsed behind a split prompt\nprompt: %q\ncompletion: %q", prompt, completion)
	}
	if (gotF == nil) != (wantF == nil) {
		t.Errorf("AST presence differs (got %v, want %v)\nprompt: %q\ncompletion: %q", gotF != nil, wantF != nil, prompt, completion)
	} else if gotF != nil && vlog.Print(gotF) != vlog.Print(wantF) {
		t.Errorf("ASTs differ\nprompt: %q\ncompletion: %q\ngot:\n%s\nwant:\n%s", prompt, completion, vlog.Print(gotF), vlog.Print(wantF))
	} else if !reflect.DeepEqual(gotF, wantF) {
		// Print drops positions, and the head's come from the prompt
		t.Errorf("ASTs differ in node positions\nprompt: %q\ncompletion: %q", prompt, completion)
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
					t.Fatalf("problem %d/%s: the prompt's parsed head was not reused", p.Number, l)
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

// TestParsePrefixedSyntaxErrorAllocatesNothing pins that a syntax error
// adds no allocation to ParsePrefixed, the verdict's parse: a completion
// that fails on its first token allocates only the copy of the prompt's
// module, and on every syntax error the *ParseError that
// ParsePrefixedErr builds is the one allocation between the two entries.
func TestParsePrefixedSyntaxErrorAllocatesNothing(t *testing.T) {
	p := problems.ByNumber(6)
	pre := vlog.LexPrefix(p.Prompt(problems.LevelLow))
	if vlog.PrefixHead(pre) == nil {
		t.Fatal("the prompt did not take the head path")
	}
	for _, c := range []struct {
		completion string
		allocs     float64 // ParsePrefixed's; -1 when only the difference is pinned
	}{
		{"  )\n", 1},
		{"", 1},
		{"  garbage tokens\n", -1},
		{"  assign q = ;\nendmodule\n", -1},
		{"  always @(posedge clk) q <= q\nendmodule\n", -1},
	} {
		if _, err := vlog.ParsePrefixedErr(pre, c.completion); err == nil {
			t.Fatalf("%q parsed", c.completion)
		} else if _, ok := err.(*vlog.ParseError); !ok {
			t.Fatalf("%q: %T, want a syntax error", c.completion, err)
		}
		shipped := testing.AllocsPerRun(50, func() { vlog.ParsePrefixed(pre, c.completion) })
		withErr := testing.AllocsPerRun(50, func() { vlog.ParsePrefixedErr(pre, c.completion) })
		if withErr-shipped != 1 {
			t.Errorf("%q: ParsePrefixed allocated %.0f times, ParsePrefixedErr %.0f; want the error as the one difference",
				c.completion, shipped, withErr)
		}
		if c.allocs >= 0 && shipped != c.allocs {
			t.Errorf("%q: ParsePrefixed allocated %.0f times, want %.0f", c.completion, shipped, c.allocs)
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
		{"if takes its else from the completion",
			"module m(input clk, input a, output reg q);\n  always @(posedge clk)\n    if (a) q <= 1;\n",
			"    else q <= 0;\nendmodule\n"},
		{"mid-header", "module m(input a,\n", "  output b);\n  assign b = a;\nendmodule\n"},
		{"whole module before a header", "module sub; endmodule\nmodule m(input a, output b);\n", "  assign b = a;\nendmodule\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if checkPrefixed(t, c.prompt, c.completion) {
				t.Errorf("prompt %q was split from its completion", c.prompt)
			}
		})
	}
	// the texts that only their completion closes must parse
	for _, i := range []int{2, 4, 5, 6, 7} {
		c := cases[i]
		if _, err := vlog.ParsePrefixedErr(vlog.LexPrefix(c.prompt), c.completion); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestPrefixSignature: a prompt's signature is its tokens, so comments,
// whitespace and line breaks leave it unchanged and any token change
// changes it; a prompt that cannot be split has none. Prompts of equal
// signature parse a completion to the same AST apart from positions:
// the three levels of each problem, over byte-prefixes of its
// reference, succeed or fail together and print alike.
func TestPrefixSignature(t *testing.T) {
	sig := func(prompt string) string { return vlog.LexPrefix(prompt).Signature() }
	base := sig("module m(input a, output b);\n  wire w;\n")
	if base == "" {
		t.Fatal("a splittable prompt has no signature")
	}
	for _, same := range []string{
		"// a buffer\nmodule m(input a, output b);\n  wire w;\n",
		"module m(\n  input a, /* in */\n  output b\n);\n\n  wire w; // spare\n",
	} {
		if sig(same) != base {
			t.Errorf("%q: the signature changed with comments and layout only", same)
		}
	}
	for _, other := range []string{
		"module m(input a, output c);\n  wire w;\n",
		"module m(input a, output b);\n  wire w, x;\n",
		"module m(input a, output b);\n  reg w;\n",
		"module m(input a, output b);\n",
	} {
		if sig(other) == base {
			t.Errorf("%q: a prompt with other tokens has the same signature", other)
		}
	}
	for _, bad := range []string{"module m(input a, output b);", "", "module m;\n  always @(a)\n"} {
		if got := sig(bad); got != "" {
			t.Errorf("%q cannot be split but has a signature", bad)
		}
	}

	for _, p := range problems.All() {
		var pres []*vlog.Prefix
		for _, l := range problems.Levels {
			pres = append(pres, vlog.LexPrefix(p.Prompt(l)))
		}
		for i := 0; i <= len(p.RefBody); i += 7 {
			c := p.RefBody[:i]
			want, wantOK := vlog.ParsePrefixed(pres[0], c)
			for li, pre := range pres[1:] {
				got, ok := vlog.ParsePrefixed(pre, c)
				if ok != wantOK || ok && vlog.Print(got) != vlog.Print(want) {
					t.Fatalf("problem %d: completion %q parses differently at %s than at %s",
						p.Number, c, problems.Levels[li+1], problems.LevelLow)
				}
			}
		}
	}
}

// TestParsePrefixedConcurrent shares one Prefix across goroutines, as
// the evaluation workers do, with completions that add items to the
// prompt's module. Under -race it pins that parsing only reads the
// shared head; afterwards the head must hold the same items it did.
func TestParsePrefixedConcurrent(t *testing.T) {
	p := problems.ByNumber(17)
	prompt := p.Prompt(problems.LevelMedium)
	pre := vlog.LexPrefix(prompt)
	head := vlog.PrefixHead(pre)
	if head == nil {
		t.Fatal("prompt did not take the head path")
	}
	items, printed := len(head.Items), vlog.PrintItems(head.Items)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(cut int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				completion := p.RefBody[:len(p.RefBody)*(cut+i)/(8+20)]
				if i%2 == 1 {
					completion = p.RefBody
				}
				want, wantErr := vlog.Parse(prompt + completion)
				got, ok := vlog.ParsePrefixed(pre, completion)
				if ok != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Errorf("completion %q: concurrent prefixed parse diverged", completion)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(head.Items) != items || vlog.PrintItems(head.Items) != printed {
		t.Errorf("shared head changed: %d items, want %d\n%s", len(head.Items), items, vlog.PrintItems(head.Items))
	}
	// a result keeps its own items through a later parse of the same
	// prompt; one added item each stays within any spare capacity
	first, ok := vlog.ParsePrefixed(pre, "  assign z = 1;\nendmodule\n")
	if !ok {
		t.Fatal("the first completion did not parse")
	}
	if _, ok := vlog.ParsePrefixed(pre, "  assign z = 0;\nendmodule\n"); !ok {
		t.Fatal("the second completion did not parse")
	}
	if want, _ := vlog.Parse(prompt + "  assign z = 1;\nendmodule\n"); !reflect.DeepEqual(first, want) {
		t.Errorf("a later parse rewrote an earlier result's items:\n%s", vlog.Print(first))
	}
}

// FuzzParsePrefixed asserts the differential for arbitrary splits, and
// that a split prompt followed by a rest without endmodule never parses.
// The seeds split each problem's source where evaluation does, between
// the prompt and the reference body, and put endmodule-free rests behind
// each prompt.
func FuzzParsePrefixed(f *testing.F) {
	for _, p := range problems.All() {
		for _, l := range problems.Levels {
			f.Add(p.Prompt(l), p.RefBody)
			// rests that never close the module
			for _, rest := range []string{"", "endmodul", "end module", "ENDMODULE", "end/**/module"} {
				f.Add(p.Prompt(l), rest)
			}
		}
	}
	f.Add("\n", "module m; endmodule")
	f.Add("module m;\n", "/* unterminated")
	// a split inside a prompt declaration
	f.Add("module m(input clk);\n  reg [7:0] mem", " [63:0];\n  always @(posedge clk) mem[0] <= 0;\nendmodule\n")
	// a prompt if that would take its else from the completion
	f.Add("module m(input a, output reg q);\n  always @(*)\n    if (a) q = 1;\n", "    else q = 0;\nendmodule\n")
	f.Fuzz(func(t *testing.T, prefix, rest string) {
		checkPrefixed(t, prefix, rest)
	})
}

func ExampleParsePrefixed() {
	pre := vlog.LexPrefix("module inv(input a, output y);\n")
	for _, body := range []string{"  assign y = ~a;\nendmodule\n", "  assign y = ~a\nendmodule\n"} {
		f, ok := vlog.ParsePrefixed(pre, body)
		fmt.Println(ok, f != nil)
	}
	// Output:
	// true true
	// false false
}
