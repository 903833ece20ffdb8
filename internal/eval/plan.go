package eval

// This file makes sweep execution distributable: query enumeration is a
// first-class Plan that any layer can build, partition with Shard, and
// hand to a Runner, and per-query CellStats land in a ResultSet whose
// merge path is shared by the in-process worker pool and the
// cross-process shard merge (internal/wire). The per-sample seed hashing
// in eval.go guarantees that any partition of a plan's query set produces
// byte-identical per-query stats, so a sharded, serialized, merged sweep
// reproduces the monolithic run exactly. See DESIGN.md, "Sharded sweep
// execution".

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/problems"
)

// Coord is the serializable address of one evaluation cell: the Query
// coordinates reduced to wire-stable scalars. Temperature is keyed in
// thousandths (gen.TempMilli), the same quantization record/replay use,
// so shard results and recordings can never disagree on float keying. N
// is part of the address because CellStats pool sample outcomes — an n=1
// cell is not recoverable from an n=25 cell.
type Coord struct {
	Model     string
	Variant   string
	Problem   int
	Level     int
	TempMilli int
	N         int
}

// Coord reduces the query to its serializable cell address.
func (q Query) Coord() Coord {
	return Coord{
		Model:     string(q.Model),
		Variant:   q.Variant.String(),
		Problem:   q.Problem.Number,
		Level:     int(q.Level),
		TempMilli: gen.TempMilli(q.Temperature),
		N:         q.N,
	}
}

// Temperature reconstructs the cell's float temperature from the
// quantized key.
func (c Coord) Temperature() float64 { return float64(c.TempMilli) / gen.TempScale }

// Query resolves the coordinate back to an executable Query, validating
// that every field addresses something real (known problem number, level
// in range, positive n). The model string is not checked against the
// catalog: backends decline unknown keys at Complete time, and replayed
// recordings may carry lines the catalog never heard of.
func (c Coord) Query() (Query, error) {
	v, ok := gen.ParseVariant(c.Variant)
	if !ok {
		return Query{}, fmt.Errorf("eval: coord %v: unknown variant %q", c, c.Variant)
	}
	p := problems.ByNumber(c.Problem)
	if p == nil {
		return Query{}, fmt.Errorf("eval: coord %v: no problem %d", c, c.Problem)
	}
	if c.Level < 0 || c.Level >= len(problems.Levels) {
		return Query{}, fmt.Errorf("eval: coord %v: level %d out of range", c, c.Level)
	}
	if c.TempMilli < 0 {
		return Query{}, fmt.Errorf("eval: coord %v: negative temperature", c)
	}
	if c.N <= 0 {
		return Query{}, fmt.Errorf("eval: coord %v: non-positive n", c)
	}
	return Query{
		Model: model.ID(c.Model), Variant: v, Problem: p,
		Level: problems.Level(c.Level), Temperature: c.Temperature(), N: c.N,
	}, nil
}

// CheckCell is the validity rule for one stored or transported cell: c
// resolves to an executable query, and st is stats the evaluation engine
// could have produced for it. The verdict pipeline only simulates
// samples that compile, so Passed <= Compiled <= Samples <= N, and the
// latency sum is a finite non-negative float.
func CheckCell(c Coord, st CellStats) error {
	if _, err := c.Query(); err != nil {
		return err
	}
	if st.Samples < 0 || st.Samples > c.N ||
		st.Compiled < 0 || st.Compiled > st.Samples ||
		st.Passed < 0 || st.Passed > st.Compiled {
		return fmt.Errorf("eval: cell %+v: inconsistent stats %+v", c, st)
	}
	if math.IsNaN(st.SumLat) || math.IsInf(st.SumLat, 0) || st.SumLat < 0 {
		return fmt.Errorf("eval: cell %+v: bad latency sum %v", c, st.SumLat)
	}
	return nil
}

// Less orders coordinates canonically (model, variant, problem, level,
// temperature, n) — the order serialized shard results are written in,
// which is what makes the wire encoding deterministic.
func (c Coord) Less(o Coord) bool {
	switch {
	case c.Model != o.Model:
		return c.Model < o.Model
	case c.Variant != o.Variant:
		return c.Variant < o.Variant
	case c.Problem != o.Problem:
		return c.Problem < o.Problem
	case c.Level != o.Level:
		return c.Level < o.Level
	case c.TempMilli != o.TempMilli:
		return c.TempMilli < o.TempMilli
	default:
		return c.N < o.N
	}
}

// Plan is a deduplicated, ordered enumeration of the cells one sweep
// needs — the unit of work distribution. Build one with Add (or record
// one off a renderer with PlanSource), partition it with Shard, execute
// it with Runner.RunPlan.
type Plan struct {
	qs []Query
	// seen indexes qs by a hash of each cell's coordinates. Its entries
	// hold no pointers, so it costs a fifth of a map keyed by Coord and
	// the garbage collector never scans it; a cell whose hash another
	// cell already holds is found by a scan of qs.
	seen map[uint64]int32
	err  error // first Add rejection, sticky (PlanSource has no error path)
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{seen: map[uint64]int32{}} }

// Add appends a query unless its cell is already planned. It rejects
// queries whose coordinates do not survive the wire round trip — in
// particular temperatures that are not exact multiples of 1/TempScale,
// where the reconstructed float would hash to a different seed stream and
// sharded output would silently diverge from the monolithic run. The
// first rejection is also kept sticky on the plan (see Err).
func (p *Plan) Add(q Query) error {
	c := q.Coord()
	rq, err := c.Query()
	if err == nil && rq.Temperature != q.Temperature {
		err = fmt.Errorf("eval: temperature %v is not a multiple of 1/%d; its quantized coordinate would reseed differently", q.Temperature, gen.TempScale)
	}
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return err
	}
	h := c.hash()
	if p.has(c, h) {
		return nil
	}
	if _, taken := p.seen[h]; !taken {
		p.seen[h] = int32(len(p.qs))
	}
	p.qs = append(p.qs, q)
	return nil
}

// has reports whether the cell c, whose hash is h, is planned.
func (p *Plan) has(c Coord, h uint64) bool {
	i, ok := p.seen[h]
	if !ok {
		return false
	}
	if p.qs[i].Coord() == c {
		return true
	}
	for _, q := range p.qs { // another cell holds the hash
		if q.Coord() == c {
			return true
		}
	}
	return false
}

// hash is an FNV-1a hash of every coordinate of the cell; the model
// name's length keeps its boundary with the variant's apart.
func (c Coord) hash() uint64 {
	h := fnvUint(fnvOffset, uint64(len(c.Model)))
	h = fnvString(fnvString(h, c.Model), c.Variant)
	for _, v := range [...]int{c.Problem, c.Level, c.TempMilli, c.N} {
		h = fnvUint(h, uint64(v))
	}
	return h
}

// Err reports the first query Add rejected, if any. Callers that build
// plans through PlanSource (which cannot surface per-call errors) must
// check it before executing the plan.
func (p *Plan) Err() error { return p.err }

// Len reports the number of planned cells.
func (p *Plan) Len() int { return len(p.qs) }

// Queries returns the planned queries in plan order.
func (p *Plan) Queries() []Query { return append([]Query(nil), p.qs...) }

// Query returns the i-th planned query, without copying the plan's.
func (p *Plan) Query(i int) Query { return p.qs[i] }

// Coords returns the planned cell addresses in plan order.
func (p *Plan) Coords() []Coord {
	out := make([]Coord, len(p.qs))
	for i, q := range p.qs {
		out[i] = q.Coord()
	}
	return out
}

// Shard returns the i-th of n strided partitions of the plan: queries
// i, i+n, i+2n, ... in plan order. Striding balances load across shards
// (consecutive plan entries tend to share a scenario and therefore cost),
// and because cells — never individual samples — are partitioned, each
// cell's float latency sum is accumulated in sample order inside exactly
// one process, which is what keeps a merged sweep byte-identical to the
// monolithic one.
func (p *Plan) Shard(i, n int) (*Plan, error) {
	if n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("eval: shard %d of %d out of range", i, n)
	}
	if p.err != nil {
		return nil, p.err
	}
	out := NewPlan()
	for j := i; j < len(p.qs); j += n {
		if err := out.Add(p.qs[j]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PlanFromCoords rebuilds an executable plan from serialized coordinates
// (the wire package's shard-plan payload), validating every cell.
func PlanFromCoords(cs []Coord) (*Plan, error) {
	p := NewPlan()
	for _, c := range cs {
		q, err := c.Query()
		if err != nil {
			return nil, err
		}
		if err := p.Add(q); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// CellSource provides per-query CellStats: a live Runner computes them,
// a ResultSet of merged shard results looks them up, and PlanSource
// records them. Every sweep and table in this package renders through
// this interface, so each artifact is computable both attached to a
// backend and offline from serialized results.
type CellSource interface {
	// Cells returns one CellStats per query, in request order.
	Cells(qs []Query) []CellStats
}

// PlanRunner is a CellSource that can also execute a whole plan under a
// context — the contract the shard-execution layer programs against. The
// Runner implements it by computing; a store-backed cached source
// implements it by serving durable cells and delegating only the misses.
type PlanRunner interface {
	CellSource
	RunPlanCtx(ctx context.Context, p *Plan) (*ResultSet, error)
}

// Cells implements CellSource on the Runner by fanning the whole batch
// across the worker pool.
func (r *Runner) Cells(qs []Query) []CellStats { return r.EvaluateBatch(qs) }

// RunPlan executes every planned cell as one batch and returns the
// per-cell stats keyed by coordinate — the payload one shard contributes
// to a distributed sweep.
func (r *Runner) RunPlan(p *Plan) (*ResultSet, error) {
	return r.RunPlanCtx(context.Background(), p)
}

// RunPlanCtx is RunPlan under a context: cancellation stops the worker
// pool promptly (see EvaluateBatchCtx) and returns ctx's error instead of
// a partial result set.
//
// Cells the backend failed to produce (see Runner.Failures) are left out
// of the returned set rather than stored as zeros: a consumer looking the
// cell up sees it in Missing, the shard writer serializes a result that
// fails the coordinator's exact-coverage validation (triggering a shard
// retry on top of the transport's own), and an exhausted run degrades to
// an explicit partial result — the sweep never aborts and never renders
// a silently short cell.
func (r *Runner) RunPlanCtx(ctx context.Context, p *Plan) (*ResultSet, error) {
	type cell struct {
		st CellStats
		ok bool
	}
	cells := make([]cell, p.Len())
	if err := r.RunPlanEach(ctx, p, func(i int, st CellStats, ok bool) { cells[i] = cell{st, ok} }); err != nil {
		return nil, err
	}
	// Only this call's failures matter here: an earlier render's transient
	// failure on a coordinate this run served fine must not evict the cell,
	// and another call's failures on this Runner are not this call's.
	rs := NewResultSet()
	for i, q := range p.qs {
		if cells[i].ok {
			if err := rs.Put(q.Coord(), cells[i].st); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// RunPlanEach executes every planned cell as one batch and hands each
// cell to each as soon as its samples are reduced, from the worker that
// completed it: each(i, st, ok) is called exactly once per planned cell,
// i indexing Queries, with ok false (and st zero) for a cell the backend
// failed to produce. Calls may come concurrently and in any order. Under
// cancellation the pool stops as EvaluateBatchCtx's does, cells not yet
// complete are never handed out, and ctx's error is returned; the cells
// it degraded are listed in Failures only when the run completes.
func (r *Runner) RunPlanEach(ctx context.Context, p *Plan, each func(i int, st CellStats, ok bool)) error {
	if err := p.Err(); err != nil {
		return err
	}
	return r.evaluateEach(ctx, p.qs, each)
}

// planSource records every requested query into a Plan instead of
// evaluating it. Running a renderer against it enumerates exactly the
// cells that renderer consumes, so a plan can never drift from the render
// path it feeds.
type planSource struct{ p *Plan }

// PlanSource returns a CellSource that records queries into p and serves
// zero stats.
func PlanSource(p *Plan) CellSource { return planSource{p} }

func (ps planSource) Cells(qs []Query) []CellStats {
	for _, q := range qs {
		ps.p.Add(q) // rejections stay sticky on the plan
	}
	return make([]CellStats, len(qs))
}

// ResultSet holds per-cell stats keyed by coordinate. It is both the
// output of executing a shard plan and, once shards are merged, a
// CellSource the harness renders tables from with no backend attached.
type ResultSet struct {
	m map[Coord]CellStats

	// missing records coordinates a Cells lookup could not serve, in
	// first-miss order. A renderer fed an incomplete merge would otherwise
	// silently print zeros.
	missing     []Coord
	missingSeen map[Coord]bool
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet {
	return &ResultSet{m: map[Coord]CellStats{}, missingSeen: map[Coord]bool{}}
}

// Put stores one cell's stats. A coordinate can be stored only once:
// within one shard a duplicate is a planning bug, and across shards an
// overlap means two processes evaluated the same cell — either way the
// merge would double-count samples.
func (s *ResultSet) Put(c Coord, st CellStats) error {
	if _, dup := s.m[c]; dup {
		return fmt.Errorf("eval: duplicate result cell %+v", c)
	}
	s.m[c] = st
	return nil
}

// Get returns the stats stored for a coordinate.
func (s *ResultSet) Get(c Coord) (CellStats, bool) {
	st, ok := s.m[c]
	return st, ok
}

// Len reports the number of stored cells.
func (s *ResultSet) Len() int { return len(s.m) }

// Coords lists the stored coordinates in canonical order.
func (s *ResultSet) Coords() []Coord {
	out := make([]Coord, 0, len(s.m))
	for c := range s.m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Merge pools another result set into this one, rejecting overlapping
// cells. Because each cell arrives whole from exactly one shard, merging
// is pure map union — no float addition spans shards — so the merged set
// is independent of merge order. Iteration goes through the sorted
// Coords so the duplicate named on error is deterministic too, not
// whichever overlap map order surfaced first.
func (s *ResultSet) Merge(o *ResultSet) error {
	coords := o.Coords()
	for _, c := range coords {
		if _, dup := s.m[c]; dup {
			return fmt.Errorf("eval: merge: cell %+v present in both result sets", c)
		}
	}
	for _, c := range coords {
		s.m[c] = o.m[c]
	}
	return nil
}

// Cells implements CellSource by lookup. A requested cell absent from the
// set contributes zero stats and is recorded for Missing — the caller
// renders first, then fails loudly if anything was unserved.
func (s *ResultSet) Cells(qs []Query) []CellStats {
	out := make([]CellStats, len(qs))
	for i, q := range qs {
		c := q.Coord()
		st, ok := s.m[c]
		if !ok {
			if !s.missingSeen[c] {
				s.missingSeen[c] = true
				s.missing = append(s.missing, c)
			}
			continue
		}
		out[i] = st
	}
	return out
}

// Missing lists the coordinates Cells could not serve, in first-miss
// order. Non-empty after rendering means the merged shards do not cover
// the artifact's plan.
func (s *ResultSet) Missing() []Coord { return append([]Coord(nil), s.missing...) }
