package gen

import (
	"cmp"
	"context"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/problems"
)

// Record is one captured sample, serialized as a single JSONL line. The
// coordinates (model, variant, problem, level, temp_milli, sample)
// identify the draw; base_seed is informational (the replay backend
// re-derives nothing from it). Temperature is stored in thousandths
// (rounded) as an integer so the JSON key never suffers float formatting
// drift. Note the evaluation engine's seed hashing *truncates* t*1000
// instead of rounding — recorder and replayer only ever need to agree
// with each other, but don't reuse tempMilli to reconstruct seeds.
type Record struct {
	Model      string  `json:"model"`
	Variant    string  `json:"variant"`
	Problem    int     `json:"problem"`
	Level      int     `json:"level"`
	TempMilli  int     `json:"temp_milli"`
	Sample     int     `json:"sample"`
	BaseSeed   int64   `json:"base_seed"`
	Completion string  `json:"completion"`
	Mechanism  string  `json:"mechanism,omitempty"`
	Latency    float64 `json:"latency"`
}

// recKey addresses one recorded sample. Latency and completion round-trip
// exactly (encoding/json emits shortest-round-trip float64), so a
// replayed recording reproduces CellStats bit for bit.
type recKey struct {
	model, variant            string
	problem, level, tempMilli int
	sample                    int
}

// TempScale is the temperature quantization shared by every serialized
// coordinate in the system: recordings, the replay backend's lookup keys,
// and the wire package's shard-plan/shard-result coordinates all key
// temperature in thousandths. One constant means record/replay and
// cross-process shard results can never disagree on float keying.
const TempScale = 1000

// TempMilli quantizes a temperature to thousandths (rounded) for
// coordinate keys. Every paper temperature is an exact multiple of
// 1/TempScale, so TempMilli(t)/TempScale reproduces t bit-for-bit for the
// sweep grid; callers serializing arbitrary temperatures should verify
// that round trip (see wire's coordinate validation).
func TempMilli(t float64) int { return int(math.Round(t * TempScale)) }

// Recorder wraps any backend and captures every sample it produces, one
// per distinct coordinate (repeat requests — re-sweeps, cache-warm table
// regenerations — keep the first capture). Flush writes the captured
// samples as JSONL sorted by coordinate (model, variant, problem, level,
// temp_milli, sample), so a recording is a pure function of what was
// sampled: the same sweep records the same bytes at any worker width or
// completion order. The replay backend indexes by coordinates and needs no
// order; the sort is for reproducible artifacts.
type Recorder struct {
	inner Backend

	mu   sync.Mutex
	w    io.Writer
	seen map[recKey]*Record // nil once flushed; the key still deduplicates
}

// NewRecorder wraps inner; Flush writes the captured samples to w.
func NewRecorder(inner Backend, w io.Writer) *Recorder {
	return &Recorder{inner: inner, w: w, seen: map[recKey]*Record{}}
}

// Complete delegates to the wrapped backend and captures the sample.
func (r *Recorder) Complete(key Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (Sample, bool) {
	s, ok := r.inner.Complete(key, p, level, temperature, sampleIdx, baseSeed)
	if !ok {
		return s, false
	}
	r.record(key, p, level, temperature, sampleIdx, baseSeed, s)
	return s, true
}

// record captures one produced sample, deduplicating by coordinates.
func (r *Recorder) record(key Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64, s Sample) {
	k := recKey{
		model: key.Model, variant: key.Variant,
		problem: p.Number, level: int(level), tempMilli: TempMilli(temperature),
		sample: sampleIdx,
	}
	r.mu.Lock()
	if _, dup := r.seen[k]; !dup {
		r.seen[k] = &Record{
			Model: key.Model, Variant: key.Variant,
			Problem: p.Number, Level: int(level), TempMilli: k.tempMilli,
			Sample: sampleIdx, BaseSeed: baseSeed,
			Completion: s.Completion, Mechanism: s.Mechanism, Latency: s.Latency,
		}
	}
	r.mu.Unlock()
}

// Flush writes every sample captured since the last Flush, one JSONL line
// each in coordinate order, and reports the first write error. Call it
// after the sweep: capturing never fails the evaluation over a sick sink.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var recs []*Record
	for k, rec := range r.seen {
		if rec != nil {
			recs = append(recs, rec)
			r.seen[k] = nil
		}
	}
	slices.SortFunc(recs, func(a, b *Record) int {
		return cmp.Or(strings.Compare(a.Model, b.Model), strings.Compare(a.Variant, b.Variant),
			cmp.Compare(a.Problem, b.Problem), cmp.Compare(a.Level, b.Level),
			cmp.Compare(a.TempMilli, b.TempMilli), cmp.Compare(a.Sample, b.Sample))
	})
	enc := json.NewEncoder(r.w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// CompleteBatch serves the batch through the wrapped backend
// (ServeBatch: its own batch fast path when it has one, else one Complete
// per request) and captures successful results exactly like Complete's;
// failed or declined slots produce no line, so a recording only ever
// holds real samples.
func (r *Recorder) CompleteBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := ServeBatch(ctx, r.inner, reqs)
	for i, res := range out {
		if i >= len(reqs) || res.Err != nil || !res.OK {
			continue
		}
		q := reqs[i]
		r.record(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed, res.Sample)
	}
	return out
}

// Prepare forwards the wrapped backend's set-up tasks: recording changes
// no sample, so it changes no set-up either.
func (r *Recorder) Prepare(keys []Key, ps []*problems.Problem) []func() {
	return r.inner.Prepare(keys, ps)
}

// Variants delegates to the wrapped backend.
func (r *Recorder) Variants() []Key { return r.inner.Variants() }

// Describe tags the wrapped description, so messages name a recorded
// backend as one. Sweep identity (core's backendTag) is taken before the
// recorder wraps the backend: recording is observation-only, so a
// recorded sweep keeps its unrecorded identity.
func (r *Recorder) Describe() string { return "record(" + r.inner.Describe() + ")" }
