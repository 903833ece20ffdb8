package ngram

import (
	"math/rand"
	"slices"
	"testing"
)

// viewCorpus is a mix of short documents, which leave the high levels
// sparse so sampling backs off, and long ones over a small vocabulary,
// which fill every level up to order 5.
func viewCorpus() [][]int {
	rng := rand.New(rand.NewSource(11))
	var docs [][]int
	for d := 0; d < 80; d++ {
		n := 1 + rng.Intn(8)
		if d%4 == 0 {
			n = 40 + rng.Intn(40)
		}
		doc := make([]int, n)
		for i := range doc {
			doc[i] = shapeVocab[rng.Intn(1+rng.Intn(len(shapeVocab)))]
		}
		docs = append(docs, doc)
	}
	return docs
}

// TestViewMatchesTrainedOrder pins what the model family relies on when
// every babble LM of a variant views one order-5 count store: the order-k
// view of an order-5 model samples the same stream, frozen and on the map
// path, and measures the same perplexity as a model trained at order k on
// the same documents.
func TestViewMatchesTrainedOrder(t *testing.T) {
	docs := viewCorpus()
	store := New(5)
	for _, doc := range docs {
		store.Train(doc)
	}
	prompts := [][]int{nil, {0}, {99}, {99, 1}, {1 << 40, -1, 3}}
	for _, doc := range docs[:12] {
		prompts = append(prompts, doc[:min(len(doc), 4)], doc[len(doc)/2:])
	}
	for k := 1; k <= 5; k++ {
		trained := New(k)
		for _, doc := range docs {
			trained.Train(doc)
		}
		frozenView, mapView := store.View(k), store.View(k)
		frozenTrained := New(k)
		for _, doc := range docs {
			frozenTrained.Train(doc)
		}
		frozenView.Freeze()
		frozenTrained.Freeze()
		if mapView.order() != k || frozenView.frozen == nil || mapView.frozen != nil {
			t.Fatalf("order %d: view has order %d, frozen %v/%v", k, mapView.order(), frozenView.frozen != nil, mapView.frozen != nil)
		}
		for _, temp := range []float64{0, 0.1, 0.7, 1} {
			for seed, prompt := range prompts {
				want := trained.Generate(nil, prompt, 60, temp, rand.New(rand.NewSource(int64(seed))))
				for _, c := range []struct {
					name string
					m    *Model
				}{{"map view", mapView}, {"frozen view", frozenView}, {"frozen trained", frozenTrained}} {
					if got := c.m.Generate(nil, prompt, 60, temp, rand.New(rand.NewSource(int64(seed)))); !slices.Equal(got, want) {
						t.Fatalf("order %d t=%v prompt %v: %s drew %v, order-%d model %v", k, temp, prompt, c.name, got, k, want)
					}
				}
			}
		}
		for i, doc := range docs[:20] {
			want := trained.Perplexity(doc)
			if got := mapView.Perplexity(doc); got != want {
				t.Fatalf("order %d doc %d: map view perplexity %v, trained %v", k, i, got, want)
			}
			if got := frozenView.Perplexity(doc); got != want {
				t.Fatalf("order %d doc %d: frozen view perplexity %v, trained %v", k, i, got, want)
			}
		}
	}
}

// TestViewClampsAndRefusesTraining pins the view's edges: an order beyond
// the store's, or below 1, is clamped, and training a view, which would
// change the store under every other view, panics.
func TestViewClampsAndRefusesTraining(t *testing.T) {
	store := New(3)
	store.Train([]int{1, 2, 3, 4})
	if got := store.View(9).order(); got != 3 {
		t.Errorf("View(9) of an order-3 model has order %d, want 3", got)
	}
	if got := store.View(0).order(); got != 1 {
		t.Errorf("View(0) has order %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("training a view did not panic")
		}
	}()
	store.View(2).Train([]int{1, 2})
}
