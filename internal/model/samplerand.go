package model

import "math/rand"

// math/rand's generator: an additive lagged Fibonacci register of rngLen
// words with tap rngTap, seeded by rngSource.Seed through the Park–Miller
// generator x ← 48271·x mod (2³¹−1) (its seedrand).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedMul  = 48271

	// seedSteps is how many seedrand steps one Seed takes: 20 warm-up
	// steps, then three per register word.
	seedSteps = 20 + 3*rngLen
)

// seedPow[k] is 48271^k mod (2³¹−1), so the k-th seedrand value from a
// start x₀ is x₀·seedPow[k] mod (2³¹−1): any seeding value is one
// multiplication away instead of k division-based steps.
var seedPow = func() (p [seedSteps + 1]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * seedMul % int32max
	}
	return p
}()

// SampleRand returns a generator whose every draw (Int63, Uint64,
// Float64, Intn, Perm, ...) equals that of rand.New(rand.NewSource(seed)),
// at a small fraction of its construction cost. rand.NewSource runs 1,841
// seeding steps and allocates a 4.9 KB register up front; SampleRand's
// source computes register words on demand from a power table, which
// covers the first 273 draws, and builds the full register only for a
// stream that goes past them. It is the constructor for the per-sample
// streams the determinism contract derives from SampleSeed; a per-sample
// stream rarely needs more than a few hundred draws.
//
// The Rand and its source share one allocation. Like rand.NewSource's,
// the result is not safe for concurrent use.
func SampleRand(seed int64) *rand.Rand {
	s := &sampleRand{}
	s.src.Seed(seed)
	s.Rand = *rand.New(&s.src)
	return &s.Rand
}

type sampleRand struct {
	rand.Rand
	src jumpSource
}

// jumpSource is a rand.Source64 reproducing math/rand's rngSource
// stream. Until its register is built it serves draw k (1-based, k ≤ 273)
// as init[334−k] + init[607−k], the sum rngSource.Uint64 forms from two
// words it has not yet overwritten; init[i] is the register word Seed
// would have stored.
type jumpSource struct {
	x0    uint64    // normalized seed: seedrand's start value
	drawn int       // draws served while lazy
	reg   *register // the full register once built; nil while lazy
}

// register is rngSource's state: the feedback register and its indices.
type register struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Seed resets the source to the stream rand.NewSource(seed) starts.
func (s *jumpSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.drawn = 0
	s.reg = nil
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *jumpSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *jumpSource) Uint64() uint64 {
	if s.reg == nil {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
		}
		s.build()
	}
	return s.reg.next()
}

// next is rngSource.Uint64.
func (r *register) next() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// word returns register word i exactly as rngSource.Seed computes it from
// seedrand values 21+3i, 22+3i and 23+3i.
func (s *jumpSource) word(i int) int64 {
	k := 21 + 3*i
	u := int64(s.x0*seedPow[k]%int32max) << 40
	u ^= int64(s.x0*seedPow[k+1]%int32max) << 20
	u ^= int64(s.x0 * seedPow[k+2] % int32max)
	return u ^ rngCooked[i]
}

// build materializes the register after the lazy draws: the seeded words,
// with the feed word of every draw served so far overwritten by that
// draw's value, and rngSource's indices where those draws left them.
func (s *jumpSource) build() {
	r := &register{tap: (rngLen - s.drawn) % rngLen, feed: rngLen - rngTap - s.drawn}
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for k := 1; k <= s.drawn; k++ {
		r.vec[rngLen-rngTap-k] += r.vec[rngLen-k]
	}
	s.reg = r
}
