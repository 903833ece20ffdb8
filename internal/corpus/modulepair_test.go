package corpus

import (
	"regexp"
	"testing"
)

// modulePairRe is the paper's keep rule as it was first written, the
// oracle HasModulePair's scan is checked against.
var modulePairRe = regexp.MustCompile(`(?s)\bmodule\b.*\bendmodule\b`)

func TestHasModulePairCases(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"module m; endmodule", true},
		{"module m;\nendmodule\n", true},
		{"endmodule module", false},
		{"module", false},
		{"endmodule", false},
		{"moduleendmodule", false},
		{"module endmodule", true},
		{"module_a; endmodule", false},   // _ is a word byte
		{"$module x endmodule", true},    // $ is not
		{"module x endmodule$", true},    // nor after the keyword
		{"module x my_endmodule", false}, // not a whole word
		{"module x endmodule2", false},   // nor this
		{"submodule x endmodule", false}, // no whole-word module
		{"endmodule submodule module m;\nendmodule", true},
		{"moduleé x endmodule", true}, // non-ASCII bytes bound a word
		{"", false},
	} {
		if got := HasModulePair(c.src); got != c.want {
			t.Errorf("HasModulePair(%q) = %v, want %v", c.src, got, c.want)
		}
		if oracle := modulePairRe.MatchString(c.src); oracle != c.want {
			t.Errorf("case %q: the regular expression says %v", c.src, oracle)
		}
	}
}

// TestHasModulePairMatchesRegexpOnCorpora runs the scan and the regular
// expression over every generated GitHub file at seeds 1-4.
func TestHasModulePairMatchesRegexpOnCorpora(t *testing.T) {
	kept, dropped := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, f := range GenerateGitHub(GitHubOptions{Seed: seed}) {
			got := HasModulePair(f.Content)
			if want := modulePairRe.MatchString(f.Content); got != want {
				t.Fatalf("seed %d %s: HasModulePair = %v, regexp = %v", seed, f.Path, got, want)
			}
			if got {
				kept++
			} else {
				dropped++
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("the corpora exercise one side only: %d with a pair, %d without", kept, dropped)
	}
}

func FuzzHasModulePair(f *testing.F) {
	for _, s := range []string{
		"module m; endmodule", "endmodule module", "module_a endmodule",
		"$module x endmodule$", "module\xffendmodule", "module\nx\nendmodule2",
		"moduleendmodule", "module module endmodule",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := HasModulePair(s), modulePairRe.MatchString(s); got != want {
			t.Fatalf("HasModulePair(%q) = %v, regexp = %v", s, got, want)
		}
	})
}
