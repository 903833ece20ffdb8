package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/problems"
)

// bankPoolDigest hashes every problem's correct, near-miss and broken
// pools, in problem order, for the bank built at seed. Each pool is
// written as its length followed by length-prefixed entries, so no two
// distinct pool sets share a byte stream.
func bankPoolDigest(seed int64) string {
	b := NewVariantBank(seed)
	h := sha256.New()
	var n [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	for _, p := range problems.All() {
		e := b.entry(p)
		for _, pool := range [][]string{e.correct, e.nearMiss, e.broken} {
			put(len(pool))
			for _, s := range pool {
				put(len(s))
				h.Write([]byte(s))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBankPoolsPinned pins the bank's pools at seeds 1-4. The pools
// decide what the correct, near-miss and broken mechanisms sample, so a
// verdict pipeline change that reclassified any candidate would move a
// digest here before it moved a rendered table.
func TestBankPoolsPinned(t *testing.T) {
	want := map[int64]string{
		1: "9404ea30da89bbd95106f62a1e4749e2a0bac9539ef6e65260e1e7f6272b984b",
		2: "7c4672ffbf868e0eea9182a4df42199b403ed760255cfbc0d717939f055f72d0",
		3: "6fcbd2ed5c5f6b3218fc1495472c48233bee6a1f80b2bce7eeaf180e2f41a7c9",
		4: "1f29b185fd419c9ebeeed058a10009bb48e1b35f97898ee49aeb5a7a0bcbdf7f",
	}
	for seed := int64(1); seed <= 4; seed++ {
		if got := bankPoolDigest(seed); got != want[seed] {
			t.Errorf("seed %d: bank pools digest %s, want %s", seed, got, want[seed])
		}
	}
}
