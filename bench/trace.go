package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// perLayer lists the metrics a traced run reports. Times are shares of
// the traced operation's wall time (trace.run_s), so a layer a workload
// never reaches reads 0 rather than a time; stage-replay shares compare
// single-goroutine replay time with that same wall time.
var perLayer = []metricDef{
	{"trace.run_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"gen.complete.calls", "count"},
	{"gen.complete.busy_frac", "fraction"},
	{"model.correct.calls", "count"},
	{"model.correct.busy_frac", "fraction"},
	{"model.near-miss.calls", "count"},
	{"model.near-miss.busy_frac", "fraction"},
	{"model.truncation.calls", "count"},
	{"model.truncation.busy_frac", "fraction"},
	{"model.babble.calls", "count"},
	{"model.babble.busy_frac", "fraction"},
	{"eval.plan.busy_frac", "fraction"},
	{"eval.plan.self_frac", "fraction"},
	{"eval.outcome.distinct_ratio", "fraction"},
	{"eval.design.hits", "count"},
	{"eval.design.misses", "count"},
	{"eval.design.evicted", "count"},
	{"eval.skeletons", "count"},
	{"sim.plan.hits", "count"},
	{"sim.plan.misses", "count"},
	{"eval.truncate.busy_frac", "fraction"},
	{"vlog.parse.calls", "count"},
	{"vlog.parse.busy_frac", "fraction"},
	{"vlog.parse.fail", "count"},
	{"elab.compile_check.calls", "count"},
	{"elab.compile_check.busy_frac", "fraction"},
	{"elab.compile_check.fail", "count"},
	{"elab.skeleton.calls", "count"},
	{"elab.skeleton.busy_frac", "fraction"},
	{"elab.splice.calls", "count"},
	{"elab.splice.busy_frac", "fraction"},
	{"elab.splice.fail", "count"},
	{"elab.elaborate.calls", "count"},
	{"elab.elaborate.busy_frac", "fraction"},
	{"elab.elaborate.fail", "count"},
	{"sim.new.calls", "count"},
	{"sim.new.busy_frac", "fraction"},
	{"sim.run.calls", "count"},
	{"sim.run.busy_frac", "fraction"},
	{"sim.run.fail", "count"},
	{"problems.pass_verdict.calls", "count"},
	{"problems.pass_verdict.pass", "count"},
	{"verdict.busy_frac", "fraction"},
	{"verdict.agree_frac", "fraction"},
	{"store.open.busy_frac", "fraction"},
	{"store.open.records", "count"},
	{"store.cells.calls", "count"},
	{"store.cells.busy_frac", "fraction"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.persisted", "count"},
	{"store.persist.self_frac", "fraction"},
	{"store.close.busy_frac", "fraction"},
	{"store.segment_bytes", "bytes"},
	{"harness.render.busy_frac", "fraction"},
	{"harness.table3.busy_frac", "fraction"},
	{"harness.table4.busy_frac", "fraction"},
	{"harness.fig6.busy_frac", "fraction"},
	{"harness.fig7.busy_frac", "fraction"},
	{"harness.headline.busy_frac", "fraction"},
	{"harness.passk.busy_frac", "fraction"},
	{"harness.problems.busy_frac", "fraction"},
	{"harness.cells.requested", "count"},
	{"wire.write.busy_frac", "fraction"},
	{"runtime.gc.cycles", "count"},
	{"runtime.gc.pause_frac", "fraction"},
}

// span is one timed call at a layer boundary. Spans of one sample or one
// candidate share ID; Parent is the index of the enclosing span, -1 at
// the root.
type span struct {
	Span   int    `json:"span"`
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Mech   string `json:"mech,omitempty"` // gen.complete: the sample's mechanism
	Fail   bool   `json:"fail,omitempty"`
	Cells  int    `json:"cells,omitempty"` // cell-source calls: cells requested
}

// tracer keeps spans in memory for one traced rep. Spans opened with
// start nest under each other and must come from one goroutine; the
// backend decorator records its spans from worker goroutines under the
// span current when they run. A nil tracer records nothing.
type tracer struct {
	t0 time.Time

	mu             sync.Mutex
	spans          []span
	cur            int
	samples        []candidate // every completion the backend served
	values         map[string]float64
	outcomeEntries int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, values: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// spanRef is an open span and the span it displaced as current.
type spanRef struct{ i, prev int }

func (t *tracer) start(name string, id int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	t.spans = append(t.spans, span{Span: i, Name: name, ID: id, Parent: t.cur, Start: t.now()})
	prev := t.cur
	t.cur = i
	return spanRef{i, prev}
}

func (t *tracer) stop(s spanRef) { t.stopFail(s, false) }

func (t *tracer) stopFail(s spanRef, failed bool) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[s.i].End = end
	t.spans[s.i].Fail = failed
	t.cur = s.prev
	t.mu.Unlock()
}

func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// tracedBackend times every Complete call of the backend it wraps. It
// must not implement gen.BatchBackend: the family backend does not, and
// the Runner picks its dispatch path by that interface.
type tracedBackend struct {
	gen.Backend // Variants and Describe forward unchanged
	tr          *tracer
}

func (b tracedBackend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (gen.Sample, bool) {
	start := b.tr.now()
	s, ok := b.Backend.Complete(key, p, level, temperature, sampleIdx, baseSeed)
	end := b.tr.now()
	t := b.tr
	t.mu.Lock()
	if ok {
		t.samples = append(t.samples, candidate{Problem: p.Number, Level: level, Completion: s.Completion})
	}
	t.spans = append(t.spans, span{
		Span: len(t.spans), Name: "gen.complete", ID: int64(len(t.samples)), Parent: t.cur,
		Start: start, End: end, Mech: s.Mechanism,
	})
	t.mu.Unlock()
	return s, ok
}

// runner is the framework's Runner rebuilt over a traced backend.
func (t *tracer) runner(fw *core.Framework) *eval.Runner {
	r := eval.NewRunner(tracedBackend{fw.Backend, t}, fw.Runner.Seed)
	r.Workers = fw.Runner.Workers
	return r
}

// tracedSource wraps a cell source: each Cells call becomes a span named
// name, and each RunPlanCtx call an eval.plan span. It forwards
// LastFailures, which the store's cached source reads from its inner
// source.
type tracedSource struct {
	inner eval.CellSource
	name  string
	tr    *tracer
}

func (t *tracer) source(inner eval.CellSource, name string) *tracedSource {
	return &tracedSource{inner, name, t}
}

func (s *tracedSource) Cells(qs []eval.Query) []eval.CellStats {
	sp := s.tr.start(s.name, 0)
	out := s.inner.Cells(qs)
	s.tr.mu.Lock()
	s.tr.spans[sp.i].Cells = len(qs)
	s.tr.mu.Unlock()
	s.tr.stop(sp)
	return out
}

// RunPlanCtx requires an inner eval.PlanRunner.
func (s *tracedSource) RunPlanCtx(ctx context.Context, p *eval.Plan) (*eval.ResultSet, error) {
	sp := s.tr.start("eval.plan", 0)
	defer s.tr.stop(sp)
	return s.inner.(eval.PlanRunner).RunPlanCtx(ctx, p)
}

func (s *tracedSource) LastFailures() []eval.CellFailure {
	if fr, ok := s.inner.(interface{ LastFailures() []eval.CellFailure }); ok {
		return fr.LastFailures()
	}
	return nil
}

// runnerStats records the Runner's outcome-cache occupancy.
func (t *tracer) runnerStats(r *eval.Runner) {
	if t == nil {
		return
	}
	n := r.CacheStats().Entries
	t.mu.Lock()
	t.outcomeEntries = n
	t.mu.Unlock()
}

// storeStats records the cached source's traffic and the store's size on
// disk.
func (t *tracer) storeStats(s store.SourceStats, dir string) {
	if t == nil {
		return
	}
	t.set("store.hits", float64(s.Hits))
	t.set("store.misses", float64(s.Misses))
	t.set("store.persisted", float64(s.Persisted))
	segs, _ := filepath.Glob(filepath.Join(dir, "cells-*.log")) // the pattern is well formed
	var size int64
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			size += fi.Size()
		}
	}
	t.set("store.segment_bytes", float64(size))
}

// candidates returns the distinct completions the traced backend served,
// in (problem, level, completion) order.
func (t *tracer) candidates() []candidate {
	t.mu.Lock()
	all := append([]candidate(nil), t.samples...)
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Problem != b.Problem {
			return a.Problem < b.Problem
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.Completion < b.Completion
	})
	out := all[:0]
	for i, cd := range all {
		if i == 0 || cd != all[i-1] {
			out = append(out, cd)
		}
	}
	return out
}

// replaySkeleton is stage replay's own testbench skeleton.
type replaySkeleton struct {
	tb    *vlog.SourceFile
	tbErr error
	skel  *elab.Skeleton // nil when construction failed: elaborate instead
}

// replay reruns each candidate, on this goroutine, through the exported
// stage functions the verdict pipeline is built from, with its own
// skeletons and plan cache, and records how many replayed verdicts equal
// eval.Evaluate's.
func (t *tracer) replay(cands []candidate) {
	if t == nil {
		return
	}
	skels := map[string]*replaySkeleton{}
	plans := sim.NewPlanCache(0)
	agree := 0
	root := t.start("replay", 0)
	for k, cd := range cands {
		p := problems.ByNumber(cd.Problem)
		id := int64(k + 1)
		v := t.start("verdict", id)
		got := t.replayOne(p, cd, id, skels, plans)
		t.stop(v)
		if got == eval.Evaluate(p, cd.Level, cd.Completion) {
			agree++
		}
	}
	t.stop(root)
	frac := 1.0 // nothing replayed, nothing disagreed
	if len(cands) > 0 {
		frac = float64(agree) / float64(len(cands))
	}
	t.set("verdict.agree_frac", frac)
}

func (t *tracer) replayOne(p *problems.Problem, cd candidate, id int64, skels map[string]*replaySkeleton, plans *sim.PlanCache) eval.Outcome {
	sp := t.start("eval.truncate", id)
	src := p.CompleteWith(cd.Level, eval.Truncate(cd.Completion))
	t.stop(sp)

	sp = t.start("vlog.parse", id)
	f, err := vlog.Parse(src)
	t.stopFail(sp, err != nil)
	if err != nil {
		return eval.Outcome{}
	}
	sp = t.start("elab.compile_check", id)
	err = elab.CompileCheck(f)
	t.stopFail(sp, err != nil)
	if err != nil {
		return eval.Outcome{}
	}

	sk := skels[p.Testbench]
	if sk == nil {
		sp = t.start("elab.skeleton", id)
		sk = &replaySkeleton{}
		if sk.tb, sk.tbErr = vlog.Parse(p.Testbench); sk.tbErr == nil {
			sk.skel, _ = elab.NewSkeleton(sk.tb, "tb", elab.HoleModules(sk.tb), elab.Options{}) // nil on error: elaborate instead
		}
		t.stop(sp)
		skels[p.Testbench] = sk
	}
	if sk.tbErr != nil {
		return eval.Outcome{Compiles: true}
	}
	var d *elab.Design
	if sk.skel != nil {
		sp = t.start("elab.splice", id)
		d, err = sk.skel.Splice(f)
		t.stopFail(sp, err != nil)
		if err != nil {
			d = nil
		}
	}
	if d == nil {
		sp = t.start("elab.elaborate", id)
		d, err = elab.Elaborate(vlog.Compose(f, sk.tb), "tb", elab.Options{})
		t.stopFail(sp, err != nil)
		if err != nil {
			return eval.Outcome{Compiles: true}
		}
	}

	sp = t.start("sim.new", id)
	s := sim.New(d, sim.Options{Plans: plans})
	t.stop(sp)
	sp = t.start("sim.run", id)
	res, err := s.Run()
	t.stopFail(sp, err != nil)
	if err != nil {
		return eval.Outcome{Compiles: true, Simulated: true}
	}
	sp = t.start("problems.pass_verdict", id)
	pass := problems.PassVerdict(res.Output)
	t.stopFail(sp, !pass)
	return eval.Outcome{Compiles: true, Simulated: true, Passes: pass}
}

// layers derives every per-layer metric from the spans and the recorded
// values. A metric named LAYER.calls counts LAYER spans, LAYER.fail those
// that failed, LAYER.busy_frac sums their durations and LAYER.self_frac
// their self time (duration minus the time child spans cover), both as
// shares of the traced operation's wall time. gen.complete spans also
// count under model.MECHANISM.
func (t *tracer) layers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	calls := map[string]float64{}
	fails := map[string]float64{}
	busy := map[string]float64{}
	self := map[string]float64{}
	cells := map[string]float64{}
	for i, s := range t.spans {
		d := float64(s.End - s.Start)
		names := []string{s.Name}
		if s.Name == "gen.complete" {
			names = append(names, "model."+s.Mech)
		}
		for _, n := range names {
			calls[n]++
			busy[n] += d
			if s.Fail {
				fails[n]++
			}
		}
		self[s.Name] += d - covered(t.spans, kids[i])
		cells[s.Name] += float64(s.Cells)
	}
	op := busy["op"]
	share := func(ns float64) float64 {
		if op == 0 {
			return 0
		}
		return ns / op
	}
	out := map[string]float64{
		"trace.run_s":                 op / 1e9,
		"problems.pass_verdict.pass":  calls["problems.pass_verdict"] - fails["problems.pass_verdict"],
		"harness.cells.requested":     cells["eval.results"] + cells["store.cells"],
		"eval.outcome.distinct_ratio": 0,
	}
	if g := calls["gen.complete"]; g > 0 {
		out["eval.outcome.distinct_ratio"] = float64(t.outcomeEntries) / g
	}
	for k, v := range t.values {
		out[k] = v
	}
	for _, m := range perLayer {
		if _, ok := out[m.name]; ok {
			continue
		}
		i := strings.LastIndexByte(m.name, '.')
		layer := m.name[:i]
		switch m.name[i+1:] {
		case "calls":
			out[m.name] = calls[layer]
		case "fail":
			out[m.name] = fails[layer]
		case "busy_frac":
			out[m.name] = share(busy[layer])
		case "self_frac":
			out[m.name] = share(self[layer])
		default:
			out[m.name] = 0 // a counter this workload never set
		}
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return float64(total + hi - lo)
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
