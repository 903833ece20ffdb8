package gen

import (
	"context"
	"encoding/json"
	"io"
	"math"
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

// Recorder wraps any backend and captures every sample it produces as
// JSONL, one line per distinct coordinate (repeat requests — re-sweeps,
// cache-warm table regenerations — are deduplicated). Line order follows
// worker completion order and is therefore not deterministic; the replay
// backend indexes by coordinates, so order never matters.
type Recorder struct {
	inner Backend

	mu   sync.Mutex
	enc  *json.Encoder
	seen map[recKey]bool
	err  error // first write error, sticky
}

// NewRecorder wraps inner, writing captured samples to w.
func NewRecorder(inner Backend, w io.Writer) *Recorder {
	return &Recorder{inner: inner, enc: json.NewEncoder(w), seen: map[recKey]bool{}}
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
	if !r.seen[k] {
		r.seen[k] = true
		if err := r.enc.Encode(Record{
			Model: key.Model, Variant: key.Variant,
			Problem: p.Number, Level: int(level), TempMilli: k.tempMilli,
			Sample: sampleIdx, BaseSeed: baseSeed,
			Completion: s.Completion, Mechanism: s.Mechanism, Latency: s.Latency,
		}); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.mu.Unlock()
}

// CompleteBatch preserves the wrapped backend's batch fast path: if inner
// is a BatchBackend the whole batch goes through in one call, otherwise
// each request is served via Complete (which already records). Successful
// results are captured exactly like Complete's; failed or declined slots
// produce no line, so a recording only ever holds real samples.
func (r *Recorder) CompleteBatch(ctx context.Context, reqs []Request) []BatchResult {
	bb, ok := r.inner.(BatchBackend)
	if !ok {
		out := make([]BatchResult, len(reqs))
		for i, q := range reqs {
			if err := ctx.Err(); err != nil {
				out[i] = BatchResult{Err: err}
				continue
			}
			s, got := r.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
			out[i] = BatchResult{Sample: s, OK: got}
		}
		return out
	}
	out := bb.CompleteBatch(ctx, reqs)
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

// Describe tags the wrapped description so recorded and unrecorded
// runners never alias outcome-cache entries.
func (r *Recorder) Describe() string { return "record(" + r.inner.Describe() + ")" }

// Err reports the first write error, if any. Check it after the sweep:
// Complete never fails the evaluation over a sick sink.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
