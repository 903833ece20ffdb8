package ngram

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func seq(vals ...int) []int { return vals }

// Sample draws the next token given history at the given temperature: one
// step of Generate, through the same longest-match lookup and step a
// frozen Generate starts with. Temperature 0 is greedy; higher
// temperatures flatten the distribution. The boolean is false when the
// model has no distribution at all (untrained).
func (m *Model) Sample(history []int, temperature float64, rng *rand.Rand) (int, bool) {
	if fz := m.frozen; fz != nil {
		s := fz.longest(history)
		if s.e < 0 {
			return 0, false
		}
		tok, _ := fz.step(s, temperature, fz.table(temperature), rng)
		return tok, true
	}
	scratch := scratchPool.Get().(*[]float64)
	tok, ok := m.mapSample(history, temperature, rng, scratch)
	scratchPool.Put(scratch)
	return tok, ok
}

func TestTrainAndGreedySample(t *testing.T) {
	m := New(3)
	// "a b c" repeated: after [1 2] always 3
	for i := 0; i < 10; i++ {
		m.Train(seq(1, 2, 3, 1, 2, 3, 1, 2, 3))
	}
	tok, ok := m.Sample(seq(1, 2), 0, rand.New(rand.NewSource(1)))
	if !ok || tok != 3 {
		t.Fatalf("sample = %d, %v", tok, ok)
	}
}

func TestBackoffToShorterContext(t *testing.T) {
	m := New(3)
	m.Train(seq(1, 2, 3, 4, 5))
	// context [9 9] never seen: back off; unigram still answers
	_, ok := m.Sample(seq(9, 9), 0, rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("backoff failed to produce a token")
	}
}

func TestUntrainedModelHasNoSample(t *testing.T) {
	m := New(2)
	if _, ok := m.Sample(nil, 0.5, rand.New(rand.NewSource(1))); ok {
		t.Fatal("untrained model produced a token")
	}
}

func TestGenerateLengthAndDeterminism(t *testing.T) {
	m := New(4)
	data := make([]int, 500)
	r := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = r.Intn(20)
	}
	m.Train(data)
	g1 := m.Generate(nil, seq(1, 2), 50, 0.8, rand.New(rand.NewSource(7)))
	g2 := m.Generate(nil, seq(1, 2), 50, 0.8, rand.New(rand.NewSource(7)))
	if len(g1) != 50 {
		t.Fatalf("generated %d tokens", len(g1))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("generation not deterministic for equal seeds")
		}
	}
}

func TestTemperatureSpreadsChoices(t *testing.T) {
	m := New(2)
	// after 1: mostly 2, occasionally 3
	for i := 0; i < 95; i++ {
		m.Train(seq(1, 2))
	}
	for i := 0; i < 5; i++ {
		m.Train(seq(1, 3))
	}
	count3 := func(temp float64) int {
		rng := rand.New(rand.NewSource(11))
		n := 0
		for i := 0; i < 1000; i++ {
			tok, _ := m.Sample(seq(1), temp, rng)
			if tok == 3 {
				n++
			}
		}
		return n
	}
	low := count3(0.2)
	high := count3(2.0)
	if !(low < high) {
		t.Fatalf("temperature did not spread: low=%d high=%d", low, high)
	}
	if g, _ := m.Sample(seq(1), 0, rand.New(rand.NewSource(1))); g != 2 {
		t.Fatalf("greedy picked %d", g)
	}
}

func TestPerplexityLowerOnTrainingDistribution(t *testing.T) {
	m := New(3)
	var train []int
	for i := 0; i < 200; i++ {
		train = append(train, 1, 2, 3, 4)
	}
	m.Train(train)
	inDist := m.Perplexity(seq(1, 2, 3, 4, 1, 2, 3, 4))
	outDist := m.Perplexity(seq(4, 3, 2, 1, 4, 3, 2, 1))
	if !(inDist < outDist) {
		t.Fatalf("perplexity in=%f out=%f", inDist, outDist)
	}
	if math.IsInf(New(2).Perplexity(seq(1)), 0) != true {
		t.Fatal("untrained perplexity should be +Inf")
	}
}

// TestStatsAccessors checks the counts Perplexity's vocabulary floor
// reads: the empty-context distribution holds every distinct token seen
// and every training token.
func TestStatsAccessors(t *testing.T) {
	m := New(2)
	m.Train(seq(5, 6, 7, 5))
	if m.order() != 2 {
		t.Errorf("order = %d", m.order())
	}
	d := m.counts[0][""]
	if d == nil || len(d.next) != 3 {
		t.Fatalf("vocab = %v", d)
	}
	if d.total != 4 {
		t.Errorf("tokens = %d", d.total)
	}
}

func TestOrderClampedToOne(t *testing.T) {
	m := New(0)
	if m.order() != 1 {
		t.Fatalf("order = %d", m.order())
	}
	m.Train(seq(1, 1, 1))
	if tok, ok := m.Sample(nil, 0, rand.New(rand.NewSource(1))); !ok || tok != 1 {
		t.Fatalf("unigram sample = %d, %v", tok, ok)
	}
}

// TestFrozenMatchesMapSampler is the equivalence contract of the packed
// sampler: for every temperature regime (greedy, the t=1 integer
// cumulative-count search, and the general softmax path) a frozen model
// must generate the exact token stream the map-backed baseline does on
// the same RNG stream.
//
// The uniform corpus has almost one successor per top-level context, so
// from a trained prompt generation replays it at the top level. The
// backoff corpus exercises the successor walk below the top: five
// skewed symbols in short documents give every context several
// successors, leave some contexts untrained, and end each document in a
// token (7) that no context follows, so drawing it falls back to the
// empty context and generation has to climb again. Its prompts end in
// trained contexts, untrained ones, the document-final token, and an id
// (99) no document holds.
func TestFrozenMatchesMapSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]int, 4000)
	for i := range data {
		data[i] = rng.Intn(90)
	}
	var prompts [][]int
	for seed := 0; seed < 20; seed++ {
		prompts = append(prompts, data[seed*7:seed*7+3])
	}
	var docs [][]int
	for d := 0; d < 12; d++ {
		doc := make([]int, 10+rng.Intn(30))
		for i := range doc {
			doc[i] = []int{0, 0, 0, 1, 1, 2, 2, 3, 4}[rng.Intn(9)]
		}
		docs = append(docs, append(doc, 7))
	}
	backoffPrompts := [][]int{
		nil, {7}, {99}, {1, 99}, {99, 3}, {99, 4, 4}, {4, 4, 4}, {3, 4, 3, 4}, {2, 7},
	}
	for _, doc := range docs[:6] {
		backoffPrompts = append(backoffPrompts, doc[:3], doc[len(doc)-4:len(doc)-1])
	}
	corpora := []struct {
		name    string
		docs    [][]int
		prompts [][]int
	}{
		{"uniform", [][]int{data}, prompts},
		{"backoff", docs, backoffPrompts},
	}
	for _, c := range corpora {
		for _, order := range []int{1, 2, 4} {
			mapM := New(order)
			frozenM := New(order)
			for _, doc := range c.docs {
				mapM.Train(doc)
				frozenM.Train(doc)
			}
			frozenM.Freeze()
			if frozenM.frozen == nil || mapM.frozen != nil {
				t.Fatal("freeze state wrong")
			}
			for _, temp := range []float64{0, 0.1, 0.5, 1.0, 1.3, 2.0} {
				for seed, prompt := range c.prompts {
					g1 := mapM.Generate(nil, prompt, 80, temp, rand.New(rand.NewSource(int64(seed))))
					g2 := frozenM.Generate(nil, prompt, 80, temp, rand.New(rand.NewSource(int64(seed))))
					if len(g1) != len(g2) {
						t.Fatalf("%s order %d t=%.1f prompt %v: lengths %d vs %d", c.name, order, temp, prompt, len(g1), len(g2))
					}
					for i := range g1 {
						if g1[i] != g2[i] {
							t.Fatalf("%s order %d t=%.1f prompt %v: token %d diverged: map %d frozen %d",
								c.name, order, temp, prompt, i, g1[i], g2[i])
						}
					}
				}
			}
		}
	}
}

// TestWideTokenContextsDistinct pins the ctxKey width guard: token ids
// that differ only above bit 23 used to collide under the silent 3-byte
// truncation, merging unrelated contexts. Both the guarded map path and
// the frozen hash path must keep them apart.
func TestWideTokenContextsDistinct(t *testing.T) {
	const wide = 1 << 24
	check := func(m *Model, label string) {
		t.Helper()
		if tok, ok := m.Sample(seq(5), 0, rand.New(rand.NewSource(1))); !ok || tok != 100 {
			t.Fatalf("%s: after [5] got %d, want 100", label, tok)
		}
		if tok, ok := m.Sample(seq(5+wide), 0, rand.New(rand.NewSource(1))); !ok || tok != 200 {
			t.Fatalf("%s: after [5+2^24] got %d, want 200", label, tok)
		}
	}
	m := New(2)
	m.Train(seq(5, 100))
	m.Train(seq(5+wide, 200))
	check(m, "map")
	m.Freeze()
	check(m, "frozen")
}

// TestCtxKeyInjective exercises the mixed-width key encoding directly:
// boundary ids around the escape threshold, negatives, and the marker
// value itself must all round-trip and stay distinct.
func TestCtxKeyInjective(t *testing.T) {
	ids := []int{0, 1, 255, 65535, wideTok - 1, wideTok, wideTok + 1, 1 << 30, -1, -(1 << 30)}
	seen := map[string][]int{}
	for _, a := range ids {
		for _, b := range ids {
			ctx := []int{a, b}
			key := ctxKey(ctx)
			if prev, dup := seen[key]; dup {
				t.Fatalf("key collision: %v and %v", prev, ctx)
			}
			seen[key] = ctx
			got := ctxKeyTokens(key, 2)
			if len(got) != 2 || got[0] != a || got[1] != b {
				t.Fatalf("round trip %v -> %v", ctx, got)
			}
		}
	}
}

// TestTrainInvalidatesFrozen pins Freeze staleness handling: training
// after a freeze must drop the packed tables so samples see the new
// counts.
func TestTrainInvalidatesFrozen(t *testing.T) {
	m := New(2)
	m.Train(seq(1, 2))
	m.Freeze()
	m.Train(seq(1, 3, 1, 3, 1, 3))
	if m.frozen != nil {
		t.Fatal("Train did not invalidate the frozen sampler")
	}
	if tok, _ := m.Sample(seq(1), 0, rand.New(rand.NewSource(1))); tok != 3 {
		t.Fatalf("post-retrain greedy = %d, want 3", tok)
	}
}

// TestHugeTokenIDsSurviveSampling pins full-width id handling in the
// selection core: ids at and above 2^31 must come back unmangled from
// both the map and frozen paths (an earlier cut stored next-token ids as
// int32, silently wrapping 1<<31 to -2^31).
func TestHugeTokenIDsSurviveSampling(t *testing.T) {
	const huge = 1 << 31
	m := New(2)
	m.Train(seq(1, huge, 1, huge))
	for _, label := range []string{"map", "frozen"} {
		if tok, ok := m.Sample(seq(1), 0, rand.New(rand.NewSource(1))); !ok || tok != huge {
			t.Fatalf("%s: greedy after [1] = %d, want %d", label, tok, huge)
		}
		if tok, ok := m.Sample(seq(1), 1.0, rand.New(rand.NewSource(2))); !ok || tok != huge {
			t.Fatalf("%s: t=1 after [1] = %d, want %d", label, tok, huge)
		}
		m.Freeze()
	}
}

// TestFreezeLayoutIndependent backs the //vgencheck:ordered waiver in
// Freeze: the open-addressed table layout follows count-map iteration
// order, which in turn follows insertion order, so two models trained on
// the same data in different sequence orders pack their tables
// differently — yet every sampled byte must be identical. If a layout
// artifact ever leaked into selection, this is the test that catches it.
func TestFreezeLayoutIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	chunks := make([][]int, 64)
	for i := range chunks {
		chunk := make([]int, 40)
		for j := range chunk {
			chunk[j] = rng.Intn(70)
		}
		chunks[i] = chunk
	}
	forward := New(3)
	backward := New(3)
	for _, c := range chunks {
		forward.Train(c)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		backward.Train(chunks[i])
	}
	forward.Freeze()
	backward.Freeze()
	for _, temp := range []float64{0, 0.7, 1.0, 1.6} {
		for seed := int64(0); seed < 16; seed++ {
			prompt := chunks[seed][:2]
			g1 := forward.Generate(nil, prompt, 120, temp, rand.New(rand.NewSource(seed)))
			g2 := backward.Generate(nil, prompt, 120, temp, rand.New(rand.NewSource(seed)))
			if len(g1) != len(g2) {
				t.Fatalf("t=%.1f seed %d: lengths %d vs %d", temp, seed, len(g1), len(g2))
			}
			for i := range g1 {
				if g1[i] != g2[i] {
					t.Fatalf("t=%.1f seed %d: token %d diverged: %d vs %d", temp, seed, i, g1[i], g2[i])
				}
			}
		}
	}
	p1 := forward.Perplexity(chunks[0])
	p2 := backward.Perplexity(chunks[0])
	if p1 != p2 {
		t.Fatalf("perplexity diverged: %v vs %v", p1, p2)
	}
}

// TestWeightMemoConcurrentMatchesMap is the equivalence contract of the
// frozen sampler's per-temperature weight tables under concurrency: 8
// goroutines generate repeatedly from one frozen model at the paper's
// temperatures, so first uses race on a table's build and later draws
// read tables other goroutines published. Every stream must equal
// the map-backed oracle's, which recomputes its weights per draw.
func TestWeightMemoConcurrentMatchesMap(t *testing.T) {
	// a small skewed vocabulary, so every context has several
	// continuations with unequal counts and temperature changes the draw
	rng := rand.New(rand.NewSource(43))
	data := make([]int, 6000)
	for i := range data {
		data[i] = rng.Intn(1 + rng.Intn(10))
	}
	oracle, frozen := New(4), New(4)
	oracle.Train(data)
	frozen.Train(data)
	frozen.Freeze()

	temps := []float64{0.1, 0.3, 0.5, 0.7, 1.0}
	const seeds = 12
	want := make([][][]int, len(temps))
	for ti, temp := range temps {
		for seed := int64(0); seed < seeds; seed++ {
			prompt := data[seed*11 : seed*11+3]
			want[ti] = append(want[ti], oracle.Generate(nil, prompt, 120, temp, rand.New(rand.NewSource(seed))))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := 0; k < len(temps)*seeds; k++ {
					// each goroutine walks the cells in its own order
					ti, seed := (k+g)%len(temps), int64((k/len(temps)+g*5)%seeds)
					prompt := data[seed*11 : seed*11+3]
					got := frozen.Generate(nil, prompt, 120, temps[ti], rand.New(rand.NewSource(seed)))
					if !slices.Equal(got, want[ti][seed]) {
						errs <- fmt.Sprintf("goroutine %d round %d t=%.1f seed %d diverged from the map oracle", g, round, temps[ti], seed)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWeightMemoHitAllocatesNothing pins the table-hit path: once a
// temperature's weight table is built, sampling at it again allocates
// nothing.
func TestWeightMemoHitAllocatesNothing(t *testing.T) {
	m := New(3)
	m.Train(seq(1, 2, 3, 1, 2, 4, 1, 2, 5, 1, 2, 3))
	m.Freeze()
	rng := rand.New(rand.NewSource(1))
	m.Sample(seq(1, 2), 0.7, rng)
	if allocs := testing.AllocsPerRun(100, func() { m.Sample(seq(1, 2), 0.7, rng) }); allocs != 0 {
		t.Fatalf("memoized sample allocates %.1f times, want 0", allocs)
	}
}

// TestWeightTablesFirstUseRace starts 8 goroutines at once on a fresh
// frozen model, each first-using the temperatures in its own order, so
// every table's first use is contended. Both entry points must equal the
// map-backed oracle: Generate, which resolves its table once per call,
// and Sample, which resolves it per draw.
func TestWeightTablesFirstUseRace(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data := make([]int, 6000)
	for i := range data {
		data[i] = rng.Intn(1 + rng.Intn(12))
	}
	oracle, frozen := New(3), New(3)
	oracle.Train(data)
	frozen.Train(data)
	frozen.Freeze()

	temps := []float64{0.1, 0.3, 0.5, 0.7, 1.3}
	const seeds = 6
	prompt := func(seed int64) []int { return data[seed*13 : seed*13+2] }
	// sampleStream draws 60 tokens through Sample, one call per token
	sampleStream := func(m *Model, temp float64, seed int64) []int {
		r := rand.New(rand.NewSource(seed))
		hist := append([]int(nil), prompt(seed)...)
		var out []int
		for i := 0; i < 60; i++ {
			tok, ok := m.Sample(hist, temp, r)
			if !ok {
				break
			}
			out = append(out, tok)
			hist = append(hist, tok)
		}
		return out
	}
	wantGen := make([][][]int, len(temps))
	wantSample := make([][][]int, len(temps))
	for ti, temp := range temps {
		for seed := int64(0); seed < seeds; seed++ {
			wantGen[ti] = append(wantGen[ti], oracle.Generate(nil, prompt(seed), 60, temp, rand.New(rand.NewSource(seed))))
			wantSample[ti] = append(wantSample[ti], sampleStream(oracle, temp, seed))
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range temps {
				ti := (k + g) % len(temps)
				for seed := int64(0); seed < seeds; seed++ {
					var got []int
					var want []int
					if (g+int(seed))%2 == 0 {
						got = frozen.Generate(nil, prompt(seed), 60, temps[ti], rand.New(rand.NewSource(seed)))
						want = wantGen[ti][seed]
					} else {
						got = sampleStream(frozen, temps[ti], seed)
						want = wantSample[ti][seed]
					}
					if !slices.Equal(got, want) {
						errs <- fmt.Sprintf("goroutine %d t=%.1f seed %d diverged from the map oracle", g, temps[ti], seed)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if built := len(frozen.frozen.tables()); built != len(temps) {
		t.Errorf("built %d weight tables, want one per temperature (%d)", built, len(temps))
	}
}
