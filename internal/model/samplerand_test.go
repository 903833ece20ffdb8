package model

import (
	"math/rand"
	"testing"

	"repro/internal/problems"
)

// compareStreams draws a mixed sequence through a SampleRand and a
// math/rand generator seeded alike and fails on the first difference.
// The mix consumes well over 273 source draws, so it crosses from the
// lazily computed prefix into the built register, and it reseeds both
// generators twice mid-stream. It then reuses the SampleRand the way
// Generator.CompleteAt reuses its pooled source: past a built register
// and a partial Read, it is re-seeded with seed and must draw what a
// new math/rand generator seeded alike draws.
func compareStreams(t *testing.T, seed int64, draws int) {
	t.Helper()
	got := SampleRand(seed)
	drawMixed(t, seed, got, rand.New(rand.NewSource(seed)), draws, true)
	for i := 0; i <= rngTap; i++ {
		got.Uint64() // one source draw each: the register is built
	}
	got.Read(make([]byte, 3)) // leaves four bytes of a word behind
	got.Seed(seed)
	drawMixed(t, seed, got, rand.New(rand.NewSource(seed)), draws, false)
}

// drawMixed draws a mixed sequence through got and want and fails on
// the first difference, reseeding both twice mid-stream if reseed is
// set.
func drawMixed(t *testing.T, seed int64, got, want *rand.Rand, draws int, reseed bool) {
	t.Helper()
	op := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < draws; i++ {
		if reseed && (i == 100 || i == draws/2) {
			s := seed*31 + int64(i)
			got.Seed(s)
			want.Seed(s)
		}
		var g, w int64
		switch op.Intn(7) {
		case 0:
			g, w = int64(got.Float64()*(1<<53)), int64(want.Float64()*(1<<53))
		case 1:
			n := 1 + op.Intn(1000)
			g, w = int64(got.Intn(n)), int64(want.Intn(n))
		case 2:
			g, w = got.Int63(), want.Int63()
		case 3:
			g, w = int64(got.Uint64()), int64(want.Uint64())
		case 4:
			n := op.Intn(8)
			gp, wp := got.Perm(n), want.Perm(n)
			for j := range gp {
				if gp[j] != wp[j] {
					t.Fatalf("seed %d draw %d: Perm(%d) = %v, want %v", seed, i, n, gp, wp)
				}
			}
		case 5:
			g, w = int64(got.Int31()), int64(want.Int31())
		case 6:
			// Read keeps a partial word between calls (readPos)
			n := op.Intn(12)
			gb, wb := make([]byte, n), make([]byte, n)
			got.Read(gb)
			want.Read(wb)
			if string(gb) != string(wb) {
				t.Fatalf("seed %d draw %d: Read(%d) = %x, want %x", seed, i, n, gb, wb)
			}
		}
		if g != w {
			t.Fatalf("seed %d draw %d: got %d, want %d", seed, i, g, w)
		}
	}
}

// TestSampleRandMatchesMathRand is SampleRand's equivalence contract: for
// every seed, every draw equals rand.New(rand.NewSource(seed))'s. The
// seeds cover the normalization edge cases of rngSource.Seed (zero and
// the multiples of 2³¹−1 that reduce to it, negatives, the substitute
// seed 89482311 itself, the int64 extremes) and the seeds the sweep
// actually uses: SampleSeed outputs.
func TestSampleRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
		89482311, -89482311, 89482311 + int32max,
		1<<63 - 1, -1 << 63, 1 << 31, -(1 << 31),
	}
	for i := 0; len(seeds) < 1200; i++ {
		seeds = append(seeds, SampleSeed(int64(i)*7919, i%17), int64(i)*int32max, -int64(i)*104729)
	}
	for _, s := range seeds {
		compareStreams(t, s, 1200)
	}
}

// TestSampleRandLongStream checks one stream far past the register's
// wrap-around (607 words), where the built register has cycled through
// every tap and feed position several times.
func TestSampleRandLongStream(t *testing.T) {
	got, want := SampleRand(42), rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: got %d, want %d", i, g, w)
		}
	}
}

// TestSampleRandAllocs pins the construction cost: one small allocation
// for the Rand and its source, none of math/rand's 4.9 KB register.
func TestSampleRandAllocs(t *testing.T) {
	var sink float64
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		r := SampleRand(SampleSeed(7, int(seed)))
		sink += r.Float64()
	})
	if allocs > 1 {
		t.Fatalf("SampleRand allocates %.1f times per seed, want <= 1", allocs)
	}
	_ = sink
}

// TestCompleteAtAllocs pins the per-sample cost of CompleteAt's pooled
// source: once the family's LM and prompt tokens are built, a babble
// sample, the longest stream of draws, allocates only its completion.
func TestCompleteAtAllocs(t *testing.T) {
	g, _ := testFamily(t).Generator(Megatron355M, Pretrained)
	p := problems.ByNumber(3)
	idx := 0
	for g.CompleteAt(p, problems.LevelMedium, 0.5, idx, 9).Mechanism != "babble" {
		idx++
	}
	allocs := testing.AllocsPerRun(100, func() {
		g.CompleteAt(p, problems.LevelMedium, 0.5, idx, 9)
	})
	if allocs > 1 {
		t.Fatalf("a babble CompleteAt allocates %.1f times, want <= 1", allocs)
	}
}

func FuzzSampleRand(f *testing.F) {
	for _, s := range []int64{0, -1, int32max, 89482311, SampleSeed(1, 0)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareStreams(t, seed, 700)
	})
}
