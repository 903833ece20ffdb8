package gen

// The optional batch fast path. A hosted completion service pays a fixed
// per-call overhead (HTTP round trip, auth, scheduling) that dwarfs the
// marginal cost of one more sample in the payload; the sweep fan-out
// (problems x levels x temps x samples) is exactly the traffic shape that
// amortizes it. Backends that can serve many coordinates per call
// implement BatchBackend and the evaluation engine cuts its work items
// into batches for them; everything else keeps the one-call-per-sample
// Complete path, byte-identical either way because samples are pure
// functions of their coordinates.

import (
	"context"

	"repro/internal/problems"
)

// Request is one completion request by coordinate — Complete's arguments
// reified so a batch (and a wire protocol) can carry many at once.
type Request struct {
	Key         Key
	Problem     *problems.Problem
	Level       problems.Level
	Temperature float64
	SampleIdx   int
	BaseSeed    int64
}

// BatchResult is the outcome of one Request in a batch. The three states
// are distinct on purpose:
//
//   - Err != nil: the backend could not produce the sample (transport
//     exhausted its retries, budget ran out). The engine must degrade the
//     whole cell to an explicit missing result — scoring it from fewer
//     samples would be a silent gap.
//   - Err == nil, OK == false: the backend serves no line at these
//     coordinates (unknown model, sample absent from a recording) — the
//     established Complete semantics; the slot stays out of the stats.
//   - Err == nil, OK == true: Sample holds the completion.
type BatchResult struct {
	Sample Sample
	OK     bool
	Err    error
}

// BatchBackend is the optional fast path: produce samples for many
// coordinates in one call. The evaluation engine detects it and cuts its
// work items into batches of eval.Runner.BatchSize consecutive items;
// backends without it are served sample-by-sample through Complete.
//
// The contract extends Backend's: the returned slice must have exactly
// one BatchResult per Request, in request order; each result must be the
// same Sample that Complete would return at those coordinates (purity is
// per-coordinate, so batch composition can never change the sweep); one
// failing request must not poison its siblings — per-request failures go
// in that entry's Err, not the whole batch; and CompleteBatch must be
// safe for concurrent use, like Complete. ctx cancellation applies to the
// whole call.
type BatchBackend interface {
	Backend
	CompleteBatch(ctx context.Context, reqs []Request) []BatchResult
}

// ServeBatch answers reqs through b: in one CompleteBatch call when b is
// a BatchBackend, otherwise one Complete per request, checking ctx before
// each so a cancelled batch stops drawing samples. It is how a wrapper
// or a server passes a batch on to a backend of either kind.
func ServeBatch(ctx context.Context, b Backend, reqs []Request) []BatchResult {
	if bb, ok := b.(BatchBackend); ok {
		return bb.CompleteBatch(ctx, reqs)
	}
	out := make([]BatchResult, len(reqs))
	for i, q := range reqs {
		if err := ctx.Err(); err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		s, ok := b.Complete(q.Key, q.Problem, q.Level, q.Temperature, q.SampleIdx, q.BaseSeed)
		out[i] = BatchResult{Sample: s, OK: ok}
	}
	return out
}
