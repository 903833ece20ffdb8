package corpus

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

func TestShinglesAndJaccard(t *testing.T) {
	a := Shingles("the quick brown fox jumps over the lazy dog", 3)
	b := Shingles("the quick brown fox jumps over the lazy dog", 3)
	if Jaccard(a, b) != 1 {
		t.Fatal("identical docs should have Jaccard 1")
	}
	c := Shingles("completely different words entirely here now", 3)
	if j := Jaccard(a, c); j != 0 {
		t.Fatalf("disjoint docs Jaccard = %f", j)
	}
	if Jaccard(ShingleSet{}, ShingleSet{}) != 1 {
		t.Fatal("empty sets should be similar")
	}
}

func TestMinHashEstimatesJaccard(t *testing.T) {
	mh := NewMinHash(256)
	base := "module m ( input a , input b , output y ) ; assign y = a & b ; endmodule"
	similar := base + " // with a tiny comment change"
	other := "entirely unrelated prose about cooking pasta with plenty of garlic and olive oil today"
	sa := Shingles(base, 3)
	sb := Shingles(similar, 3)
	sc := Shingles(other, 3)
	exactAB := Jaccard(sa, sb)
	estAB := Estimate(mh.Signature(sa), mh.Signature(sb))
	if diff := exactAB - estAB; diff > 0.15 || diff < -0.15 {
		t.Fatalf("estimate %f too far from exact %f", estAB, exactAB)
	}
	estAC := Estimate(mh.Signature(sa), mh.Signature(sc))
	if estAC > 0.1 {
		t.Fatalf("unrelated docs estimated similar: %f", estAC)
	}
}

func TestDedupDropsExactAndNearDuplicates(t *testing.T) {
	d1 := "module a ( input x , output y ) ; assign y = x ; endmodule"
	d2 := d1
	d3 := "// comment\n" + d1
	d4 := "totally different document with many unique words in it for sure absolutely"
	kept := Dedup([]string{d1, d2, d3, d4}, 3, 128, 0.7)
	if len(kept) != 2 {
		t.Fatalf("kept = %v", kept)
	}
	if kept[0] != 0 || kept[1] != 3 {
		t.Fatalf("kept = %v", kept)
	}
}

func TestGeneratedModulesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		src := GenerateModule(rng)
		f, err := vlog.Parse(src)
		if err != nil {
			t.Fatalf("generated module does not parse: %v\n%s", err, src)
		}
		if err := elab.CompileCheck(f); err != nil {
			t.Fatalf("generated module does not elaborate: %v\n%s", err, src)
		}
	}
}

func TestGitHubGenerationShape(t *testing.T) {
	files := GenerateGitHub(GitHubOptions{Seed: 1})
	if len(files) != 500 {
		t.Fatalf("file count = %d", len(files))
	}
	noise, big := 0, 0
	for _, f := range files {
		if !HasModulePair(f.Content) {
			noise++
		}
		if len(f.Content) >= 20000 {
			big++
		}
	}
	if noise == 0 {
		t.Error("no noise files generated")
	}
	if big == 0 {
		t.Error("no oversized files generated")
	}
}

func TestCuratePipeline(t *testing.T) {
	files := GenerateGitHub(GitHubOptions{Seed: 2})
	kept, st := Curate(files)
	if st.Input != 500 {
		t.Fatalf("input = %d", st.Input)
	}
	if st.DroppedNoPair == 0 || st.DroppedTooBig == 0 || st.DroppedDup == 0 {
		t.Fatalf("stats missing drops: %+v", st)
	}
	if st.Kept != len(kept) || st.Kept == 0 {
		t.Fatalf("kept inconsistent: %+v vs %d", st, len(kept))
	}
	if st.Kept+st.DroppedNoPair+st.DroppedTooBig+st.DroppedDup != st.Input {
		t.Fatalf("stats do not add up: %+v", st)
	}
	for _, f := range kept {
		if !HasModulePair(f.Content) || len(f.Content) >= 20000 {
			t.Fatalf("kept file violates filters: %s", f.Path)
		}
	}
}

func TestCurateDeterministic(t *testing.T) {
	files := GenerateGitHub(GitHubOptions{Seed: 3})
	k1, s1 := Curate(files)
	k2, s2 := Curate(files)
	if s1 != s2 || len(k1) != len(k2) {
		t.Fatal("pipeline not deterministic")
	}
}

func TestNormalizeForLM(t *testing.T) {
	src := "// a comment\nassign y = a&b; /* block */\n"
	got := NormalizeForLM(src)
	want := "assign y = a & b ;"
	if got != want {
		t.Fatalf("normalize = %q, want %q", got, want)
	}
}

func TestBooksPipeline(t *testing.T) {
	books := GenerateBooks(BookOptions{Seed: 5})
	if len(books) != 7 {
		t.Fatalf("books = %d", len(books))
	}
	for _, b := range books {
		if !strings.Contains(b, "PREFACE") || !strings.Contains(b, "INDEX") {
			t.Fatal("book missing front/back matter")
		}
	}
	cleaned := CleanBook(books[0])
	if strings.Contains(cleaned, "dedicated to our students") {
		t.Fatal("preface not removed")
	}
	if strings.Contains(cleaned, "INDEX") {
		t.Fatal("index not removed")
	}

	wins := ExtractWindows(books)
	if len(wins) == 0 {
		t.Fatal("no windows extracted")
	}
	for _, w := range wins {
		if WordCodeDensity(strings.Fields(w)) < 0.2 {
			t.Fatal("low-density window kept")
		}
	}
}

func TestCodeDensity(t *testing.T) {
	code := "module m;\nassign y = a;\nendmodule\n"
	prose := "This chapter reviews the history of logic design.\nIt begins long ago.\n"
	if CodeDensity(code) <= CodeDensity(prose) {
		t.Fatal("code not denser than prose")
	}
	if CodeDensity("") != 0 {
		t.Fatal("empty text density")
	}
}

func TestTrainingText(t *testing.T) {
	files := []File{{Path: "a.v", Content: "x"}, {Path: "b.v", Content: "y"}}
	tt := TrainingText(files)
	if len(tt) != 2 || tt[0] != "x" || tt[1] != "y" {
		t.Fatalf("training text = %v", tt)
	}
}

// TestMinHashInsertionOrderFree backs the //vgencheck:ordered waivers on
// the Jaccard and Signature reductions: shingle sets built by inserting
// the same shingles in opposite orders (different map layouts) must
// produce bit-identical signatures and similarity scores.
func TestMinHashInsertionOrderFree(t *testing.T) {
	text := "module adder(input a, input b, output sum); assign sum = a ^ b; endmodule"
	base := Shingles(text, 3)
	keys := make([]uint64, 0, len(base))
	for s := range base {
		keys = append(keys, s)
	}
	fwd := make(ShingleSet, len(keys))
	rev := make(ShingleSet, len(keys))
	for _, s := range keys {
		fwd[s] = true
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev[keys[i]] = true
	}
	mh := NewMinHash(64)
	s1, s2 := mh.Signature(fwd), mh.Signature(rev)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("signature slot %d diverged: %x vs %x", i, s1[i], s2[i])
		}
	}
	other := Shingles("always @(posedge clk) q <= d;", 3)
	if Jaccard(fwd, other) != Jaccard(rev, other) {
		t.Fatal("Jaccard depends on shingle insertion order")
	}
	if Jaccard(fwd, other) != Jaccard(other, fwd) {
		t.Fatal("Jaccard is not symmetric")
	}
}
