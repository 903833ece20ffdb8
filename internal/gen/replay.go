package gen

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/problems"
)

func init() {
	Register("replay", "serves completions from a JSONL recording (-replay FILE)", func(o Options) (Backend, error) {
		if o.ReplayPath == "" {
			return nil, errors.New("gen: replay backend needs a recording (set ReplayPath / -replay)")
		}
		f, err := os.Open(o.ReplayPath)
		if err != nil {
			return nil, fmt.Errorf("gen: replay: %w", err)
		}
		defer f.Close()
		r, err := NewReplay(f)
		if err != nil {
			return nil, fmt.Errorf("gen: replay %s: %w", o.ReplayPath, err)
		}
		return r, nil
	})
}

// Replay serves completions from a JSONL recording (see Record). This is
// the path that lets the harness score *real* LLM transcripts: capture a
// model's completions offline (or record any backend with NewRecorder),
// then run the full sweep against the frozen samples. Lookups are by
// coordinate, so a replayed sweep reproduces the recorded run's CellStats
// exactly — including latency sums — independent of worker width or the
// order the recording was written in.
type Replay struct {
	samples map[recKey]Sample
	keys    []Key
	lines   int
	digest  uint64
}

// NewReplay loads a JSONL recording. Later lines win when a coordinate is
// recorded twice (recordings concatenate cleanly). Blank lines are
// skipped; a malformed line is an error, not a silent drop.
func NewReplay(r io.Reader) (*Replay, error) {
	rp := &Replay{samples: map[recKey]Sample{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024) // completions can be long
	seenKeys := map[Key]bool{}
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		rp.samples[recKey{
			model: rec.Model, variant: rec.Variant,
			problem: rec.Problem, level: rec.Level, tempMilli: rec.TempMilli,
			sample: rec.Sample,
		}] = Sample{Completion: rec.Completion, Mechanism: rec.Mechanism, Latency: rec.Latency}
		k := Key{Model: rec.Model, Variant: rec.Variant}
		if !seenKeys[k] {
			seenKeys[k] = true
			rp.keys = append(rp.keys, k)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rp.lines = line
	sort.Slice(rp.keys, func(i, j int) bool {
		if rp.keys[i].Model != rp.keys[j].Model {
			return rp.keys[i].Model < rp.keys[j].Model
		}
		return rp.keys[i].Variant < rp.keys[j].Variant
	})
	rp.digest = rp.contentDigest()
	return rp, nil
}

// contentDigest hashes the decoded samples — coordinates and payloads —
// independent of file line order and of duplicate lines that lost the
// later-line-wins race. Describe() carries it because that tag is the
// sweep identity distributed shards are validated and merged under: two
// workers replaying recordings that differ in even one completion must
// not produce shard files that merge silently into one table.
func (r *Replay) contentDigest() uint64 {
	var sum uint64
	//vgencheck:ordered wrapping uint64 add of per-entry hashes; the digest is order-independent by construction
	for k, s := range r.samples {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%s\x00%s\x00%b",
			k.model, k.variant, k.problem, k.level, k.tempMilli, k.sample,
			s.Completion, s.Mechanism, math.Float64bits(s.Latency))
		sum += h.Sum64() // wrapping add: order-independent over the map
	}
	return sum
}

// Complete returns the recorded sample at the exact coordinates; ok is
// false for anything not in the recording, which the engine scores as an
// empty slot rather than inventing a completion.
func (r *Replay) Complete(key Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (Sample, bool) {
	s, ok := r.samples[recKey{
		model: key.Model, variant: key.Variant,
		problem: p.Number, level: int(level), tempMilli: TempMilli(temperature),
		sample: sampleIdx,
	}]
	return s, ok
}

// Prepare returns nil: a recording is loaded whole at construction.
func (r *Replay) Prepare([]Key, []*problems.Problem) []func() { return nil }

// Variants lists the (model, variant) lines present in the recording.
func (r *Replay) Variants() []Key { return append([]Key(nil), r.keys...) }

// Describe summarizes the recording, including a content digest so two
// different recordings never share an identity tag.
func (r *Replay) Describe() string {
	return fmt.Sprintf("replay: %d recorded samples across %d model lines (content %016x)",
		len(r.samples), len(r.keys), r.digest)
}

// Len reports how many distinct samples the recording holds.
func (r *Replay) Len() int { return len(r.samples) }
