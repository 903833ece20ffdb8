package main

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/problems"
	"repro/internal/store"
	"repro/internal/wire"
)

// Digests of the paper-scale outputs at seed 1. pinnedResults is the
// sha256 of the wire result file that `vgen-eval -shards 1 -shard 0 -emit
// F -experiment all` writes, at any -workers; pinnedText that of the
// seven cell-based artifacts as `vgen-eval -merge F -experiment all`
// prints them; pinnedVerdicts that of the verdict stream's candidates and
// their EvaluateUnshared verdicts.
const (
	pinnedResults  = "391253ba2a7ac8af73bf1354de26703b90b641a4ff9fbffbcbff460eccceea7a"
	pinnedText     = "dbf11e88f5b159fefbf16eee5d456d59edb877956067cd147dd03a5109e17c93"
	pinnedVerdicts = "60658c805db50a586f09df596fd7aa03492a432b59a6b951346bb2ff9a441990"
)

// checkPinned compares a paper-scale, seed-1 reference with the pinned
// digests.
func checkPinned(workload string, c childOpts, ref repStats) []string {
	if c.Scale != "paper" || c.Seed != 1 {
		return nil
	}
	want := repStats{Digest: pinnedResults, TextDigest: pinnedText}
	switch workload {
	case "verdict-stream":
		want = repStats{Digest: pinnedVerdicts}
	case "store-warm":
		want.Digest = ""
	case "store-resume":
		want.TextDigest = ""
	}
	var fails []string
	if ref.Digest != want.Digest {
		fails = append(fails, fmt.Sprintf("reference digest %s, pinned %s", ref.Digest, want.Digest))
	}
	if ref.TextDigest != want.TextDigest {
		fails = append(fails, fmt.Sprintf("reference rendered-text digest %s, pinned %s", ref.TextDigest, want.TextDigest))
	}
	return fails
}

// childOpts is everything a child is told on its command line.
type childOpts struct {
	Role     string // prep or rep
	Workload string
	Seed     int64
	Scale    string
	Dir      string  // the run's scratch directory, shared by its children
	Seconds  float64 // reps in one child continue until this much time has passed
	Trace    bool
	Spans    string
	Workers  int // Runner width; not a flag, since only the paper-cold reference changes it
}

func (c childOpts) args() []string {
	return []string{
		"-role", c.Role, "-workload", c.Workload,
		"-seed", strconv.FormatInt(c.Seed, 10), "-scale", c.Scale, "-dir", c.Dir,
		"-seconds", strconv.FormatFloat(c.Seconds, 'g', -1, 64),
		"-trace=" + strconv.FormatBool(c.Trace), "-spans", c.Spans,
	}
}

// repStats is one rep's measurements and output digests. A preparation
// child reports the reference digests in the same shape.
type repStats struct {
	SetupS     float64  `json:"setup_s"`
	RunS       float64  `json:"run_s"`
	Items      int      `json:"items"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Digest     string   `json:"digest,omitempty"`
	TextDigest string   `json:"text_digest,omitempty"`
	Failures   []string `json:"failures,omitempty"`
}

// report is a child's whole output.
type report struct {
	Reps   []repStats         `json:"reps"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench "+childFlag, flag.ContinueOnError)
	c := childOpts{Workers: benchWorkers}
	fs.StringVar(&c.Role, "role", "", "prep or rep")
	fs.StringVar(&c.Workload, "workload", "", "workload name")
	fs.Int64Var(&c.Seed, "seed", 1, "input seed")
	fs.StringVar(&c.Scale, "scale", "paper", "input scale")
	fs.StringVar(&c.Dir, "dir", "", "scratch directory")
	fs.Float64Var(&c.Seconds, "seconds", 0, "run reps until this many seconds have passed")
	fs.BoolVar(&c.Trace, "trace", false, "trace the single rep")
	fs.StringVar(&c.Spans, "spans", "", "spans JSONL output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out, err := runRole(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s %s: %v\n", c.Role, c.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench %s %s: %v\n", c.Role, c.Workload, err)
		return 1
	}
	return 0
}

func runRole(c childOpts) (report, error) {
	w, ok := workloadNamed(c.Workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", c.Workload)
	}
	if c.Role == "prep" {
		r, err := w.prep(c)
		return report{Reps: []repStats{r}}, err
	}
	rep, err := w.load(c)
	if err != nil {
		return report{}, err
	}
	var out report
	var tr *tracer
	if c.Trace {
		tr = newTracer()
	}
	start := time.Now()
	for len(out.Reps) == 0 || (!c.Trace && time.Since(start).Seconds() < c.Seconds) {
		r, err := rep(tr)
		if err != nil {
			return out, err
		}
		out.Reps = append(out.Reps, r)
	}
	if tr != nil {
		out.Layers = tr.layers()
		if c.Spans != "" {
			if err := tr.writeSpans(c.Spans); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// config is the framework configuration of one seed at the run's scale.
// The tiny scale exists for the smoke test: one temperature, one
// completion per prompt, a small corpus.
func (c childOpts) config(seed int64) core.Config {
	cfg := core.Config{Seed: seed, Workers: c.Workers}
	if c.Scale == "tiny" {
		cfg.CorpusFiles = 8
		cfg.Sweep = eval.SweepOptions{N: 1, Temperatures: []float64{0.1}}
	}
	return cfg
}

// measureOp times op and the bytes it allocates. On a traced rep it also
// records op as the root span and the shared-tier and GC counters it
// moved.
func measureOp(tr *tracer, op func() error) (runS float64, alloc uint64, err error) {
	var s0 eval.SharedCacheStats
	if tr != nil {
		s0 = eval.SharedStats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.start("op", 0)
	t := time.Now()
	err = op()
	d := time.Since(t)
	tr.stop(sp)
	runtime.ReadMemStats(&m1)
	if tr != nil {
		s1 := eval.SharedStats()
		tr.set("eval.design.hits", float64(s1.DesignHits-s0.DesignHits))
		tr.set("eval.design.misses", float64(s1.DesignMisses-s0.DesignMisses))
		tr.set("eval.design.evicted", float64(s1.DesignEvicted-s0.DesignEvicted))
		tr.set("eval.skeletons", float64(s1.Skeletons))
		tr.set("sim.plan.hits", float64(s1.Plans.Hits-s0.Plans.Hits))
		tr.set("sim.plan.misses", float64(s1.Plans.Misses-s0.Plans.Misses))
		tr.set("runtime.gc.cycles", float64(m1.NumGC-m0.NumGC))
		tr.set("runtime.gc.pause_frac", float64(m1.PauseTotalNs-m0.PauseTotalNs)/float64(d))
	}
	return d.Seconds(), m1.TotalAlloc - m0.TotalAlloc, err
}

// newSweep builds the framework for one seed and the plan of every
// cell-based artifact; its wall time is the workload's set-up.
func newSweep(c childOpts, seed int64) (*core.Framework, *eval.Plan, float64, error) {
	t := time.Now()
	fw, err := core.New(c.config(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	plan, err := fw.Harness.PlanFor([]string{"all"})
	if err != nil {
		return nil, nil, 0, err
	}
	return fw, plan, time.Since(t).Seconds(), nil
}

// renderCells renders the seven cell-based artifacts as vgen-eval prints
// them, one span per renderer.
func renderCells(h *harness.Harness, tr *tracer) string {
	var b strings.Builder
	all := tr.start("harness.render", 0)
	for _, r := range harness.Renderers() {
		if !r.Cell {
			continue
		}
		sp := tr.start("harness."+r.Name, 0)
		b.WriteString(r.Render(h))
		b.WriteByte('\n')
		tr.stop(sp)
	}
	tr.stop(all)
	return b.String()
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// resultsDigest is the sha256 of the single-shard wire result file.
func resultsDigest(fw *core.Framework, rs *eval.ResultSet, tr *tracer) (string, error) {
	h := sha256.New()
	sp := tr.start("wire.write", 0)
	err := wire.WriteResults(h, fw.ShardMeta(0, 1), rs)
	tr.stop(sp)
	return hex.EncodeToString(h.Sum(nil)), err
}

func samples(rs *eval.ResultSet, coords []eval.Coord) int {
	n := 0
	for _, c := range coords {
		st, _ := rs.Get(c)
		n += st.Samples
	}
	return n
}

func runnerFailures(r *eval.Runner) []string {
	var out []string
	for _, f := range r.Failures() {
		out = append(out, fmt.Sprintf("degraded cell %+v: %v", f.Coord, f.Err))
	}
	return out
}

// coldSweep is the paper-cold operation: run the plan of every cell-based
// artifact on a fresh framework, then render the seven artifacts from the
// result set. Its digests cover the wire result file and the text.
func coldSweep(c childOpts, seed int64, tr *tracer) (*core.Framework, *eval.ResultSet, repStats, error) {
	fw, plan, setup, err := newSweep(c, seed)
	if err != nil {
		return nil, nil, repStats{}, err
	}
	runner := fw.Runner
	var pr eval.PlanRunner = runner
	if tr != nil {
		runner = tr.runner(fw)
		pr = tr.source(runner, "eval.cells")
	}
	r := repStats{SetupS: setup}
	var rs *eval.ResultSet
	var text string
	r.RunS, r.AllocBytes, err = measureOp(tr, func() error {
		var err error
		if rs, err = pr.RunPlanCtx(context.Background(), plan); err != nil {
			return err
		}
		h := harness.FromResults(rs, fw.Harness.Opts)
		if tr != nil {
			h.Source = tr.source(rs, "eval.results")
		}
		text = renderCells(h, tr)
		return nil
	})
	if err != nil {
		return nil, nil, r, err
	}
	r.Failures = runnerFailures(runner)
	if m := rs.Missing(); len(m) > 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("%d cells missing from the result set, first %+v", len(m), m[0]))
	}
	r.Items = samples(rs, rs.Coords())
	r.TextDigest = textDigest(text)
	r.Digest, err = resultsDigest(fw, rs, tr)
	tr.runnerStats(runner)
	return fw, rs, r, err
}

// paper-cold: a cold sweep per fresh process. The reference is one more
// cold sweep on a single worker.

func paperColdPrep(c childOpts) (repStats, error) {
	c.Workers = 1
	_, _, r, err := coldSweep(c, c.Seed, nil)
	return r, err
}

func paperColdLoad(c childOpts) (repFunc, error) {
	return func(tr *tracer) (repStats, error) {
		_, _, r, err := coldSweep(c, c.Seed, tr)
		if err == nil && tr != nil {
			tr.replay(tr.candidates())
		}
		return r, err
	}, nil
}

// verdict-stream: every distinct candidate of four family sweeps pushed
// through eval.Evaluate by closed-loop clients, with the shared tiers
// emptied before each rep.

// candidate is one distinct (problem, level, completion) the family
// produced.
type candidate struct {
	Problem    int
	Level      problems.Level
	Completion string
}

type candidateFile struct {
	Cands []candidate
	Want  []eval.Outcome // EvaluateUnshared's verdicts
}

func candidatesPath(c childOpts) string { return filepath.Join(c.Dir, "candidates.gob") }

// verdictDigest hashes the candidates with their verdicts.
func verdictDigest(cands []candidate, got []eval.Outcome) string {
	h := sha256.New()
	for i, cd := range cands {
		fmt.Fprintf(h, "%d %d %q %t %t %t\n", cd.Problem, cd.Level, cd.Completion,
			got[i].Compiles, got[i].Simulated, got[i].Passes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evaluateAll runs every candidate through evaluate on benchWorkers
// closed-loop clients, each taking the next candidate when its previous
// verdict returns.
func evaluateAll(cands []candidate, got []eval.Outcome, evaluate func(*problems.Problem, problems.Level, string) eval.Outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(benchWorkers)
	for w := 0; w < benchWorkers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cands) {
					return
				}
				cd := cands[i]
				got[i] = evaluate(problems.ByNumber(cd.Problem), cd.Level, cd.Completion)
			}
		}()
	}
	wg.Wait()
}

// streamSweeps is how many family sweeps (seeds S..S+3) the verdict
// stream draws its candidates from, so that no one seed's models set the
// mix of parse failures and simulations.
const streamSweeps = 4

func verdictPrep(c childOpts) (repStats, error) {
	rec := newTracer() // records the completions the sweeps draw
	var fails []string
	for k := int64(0); k < streamSweeps; k++ {
		fw, plan, _, err := newSweep(c, c.Seed+k)
		if err != nil {
			return repStats{}, err
		}
		runner := rec.runner(fw)
		if _, err := runner.RunPlan(plan); err != nil {
			return repStats{}, err
		}
		fails = append(fails, runnerFailures(runner)...)
	}
	cf := candidateFile{Cands: rec.candidates()}
	cf.Want = make([]eval.Outcome, len(cf.Cands))
	evaluateAll(cf.Cands, cf.Want, eval.EvaluateUnshared)
	f, err := os.Create(candidatesPath(c))
	if err != nil {
		return repStats{}, err
	}
	if err := gob.NewEncoder(f).Encode(cf); err != nil {
		f.Close()
		return repStats{}, err
	}
	if err := f.Close(); err != nil {
		return repStats{}, err
	}
	return repStats{Items: len(cf.Cands), Digest: verdictDigest(cf.Cands, cf.Want), Failures: fails}, nil
}

func verdictLoad(c childOpts) (repFunc, error) {
	f, err := os.Open(candidatesPath(c))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cf candidateFile
	if err := gob.NewDecoder(f).Decode(&cf); err != nil {
		return nil, fmt.Errorf("%s: %w", candidatesPath(c), err)
	}
	return func(tr *tracer) (repStats, error) {
		// Set-up: empty the shared plan and design tiers, then warm the
		// skeletons and testbench plans on every problem's reference.
		t := time.Now()
		eval.SetPlanCacheBytes(1)
		eval.SetPlanCacheBytes(0)
		for _, p := range problems.All() {
			for _, l := range problems.Levels {
				eval.Evaluate(p, l, p.RefBody)
			}
		}
		r := repStats{SetupS: time.Since(t).Seconds(), Items: len(cf.Cands)}
		got := make([]eval.Outcome, len(cf.Cands))
		var err error
		r.RunS, r.AllocBytes, err = measureOp(tr, func() error {
			evaluateAll(cf.Cands, got, eval.Evaluate)
			return nil
		})
		r.Digest = verdictDigest(cf.Cands, got)
		tr.replay(cf.Cands)
		return r, err
	}, nil
}

// store-warm: a warm `vgen-eval -store` re-run. The store holds four
// sweep identities; each rep opens it, renders the seven artifacts for
// the first through the cached source, and closes it.

// warmIdentities is how many sweeps the warm store keeps, so that Open
// replays history as a long-lived store would.
const warmIdentities = 4

func warmDir(c childOpts) string { return filepath.Join(c.Dir, "warm") }

func storeWarmPrep(c childOpts) (repStats, error) {
	st, err := store.Open(warmDir(c))
	if err != nil {
		return repStats{}, err
	}
	var ref repStats
	for k := int64(0); k < warmIdentities; k++ {
		fw, rs, r, err := coldSweep(c, c.Seed+k, nil)
		if err != nil {
			st.Close()
			return repStats{}, err
		}
		if k == 0 {
			ref = repStats{TextDigest: r.TextDigest}
		}
		ref.Failures = append(ref.Failures, r.Failures...)
		for _, co := range rs.Coords() {
			cs, _ := rs.Get(co)
			if err := st.Put(fw.SweepIdentity(), co, cs); err != nil {
				st.Close()
				return repStats{}, err
			}
		}
	}
	return ref, st.Close()
}

func storeWarmLoad(c childOpts) (repFunc, error) {
	return func(tr *tracer) (repStats, error) {
		t := time.Now()
		fw, err := core.New(c.config(c.Seed))
		if err != nil {
			return repStats{}, err
		}
		r := repStats{SetupS: time.Since(t).Seconds()}
		var src *store.Source
		var text string
		var errs []error
		r.RunS, r.AllocBytes, err = measureOp(tr, func() error {
			sp := tr.start("store.open", 0)
			st, err := store.Open(warmDir(c))
			tr.stop(sp)
			if err != nil {
				return err
			}
			tr.set("store.open.records", float64(st.Len()))
			src = store.Cached(fw.Runner, st, fw.SweepIdentity())
			fw.Harness.Source = src
			if tr != nil {
				fw.Harness.Source = tr.source(src, "store.cells")
			}
			text = renderCells(fw.Harness, tr)
			errs = append(errs, src.Err())
			sp = tr.start("store.close", 0)
			errs = append(errs, st.Close())
			tr.stop(sp)
			return nil
		})
		if err != nil {
			return r, err
		}
		s := src.Stats()
		r.Items = s.Hits
		r.TextDigest = textDigest(text)
		r.Failures = storeFailures(errs...)
		if s.Misses != 0 {
			r.Failures = append(r.Failures, fmt.Sprintf("warm store missed %d cells", s.Misses))
		}
		r.Failures = append(r.Failures, runnerFailures(fw.Runner)...)
		tr.storeStats(s, warmDir(c))
		if tr != nil {
			tr.replay(tr.candidates()) // none: a warm store computes nothing
		}
		return r, nil
	}, nil
}

func storeFailures(errs ...error) []string {
	var out []string
	for _, err := range errs {
		if err != nil {
			out = append(out, "store: "+err.Error())
		}
	}
	return out
}

// store-resume: a sweep resuming from a store that holds shard 0 of 2 of
// its plan. Each rep copies the template store into place, untimed, then
// opens it, runs the full plan through the cached source, and closes it.

func templateDir(c childOpts) string { return filepath.Join(c.Dir, "template") }
func resumeDir(c childOpts) string   { return filepath.Join(c.Dir, "resume") }

func storeResumePrep(c childOpts) (repStats, error) {
	fw, rs, r, err := coldSweep(c, c.Seed, nil)
	if err != nil {
		return repStats{}, err
	}
	half, _, err := fw.ShardPlan([]string{"all"}, 0, 2)
	if err != nil {
		return repStats{}, err
	}
	st, err := store.Open(templateDir(c))
	if err != nil {
		return repStats{}, err
	}
	for _, co := range half.Coords() {
		cs, _ := rs.Get(co)
		if err := st.Put(fw.SweepIdentity(), co, cs); err != nil {
			st.Close()
			return repStats{}, err
		}
	}
	return repStats{Digest: r.Digest, Failures: r.Failures}, st.Close()
}

// copyStore replaces dst with a copy of the store in src, synced so that
// the rep's own fsyncs write only what the rep appends.
func copyStore(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func storeResumeLoad(c childOpts) (repFunc, error) {
	return func(tr *tracer) (repStats, error) {
		if err := copyStore(templateDir(c), resumeDir(c)); err != nil {
			return repStats{}, err
		}
		fw, plan, setup, err := newSweep(c, c.Seed)
		if err != nil {
			return repStats{}, err
		}
		runner := fw.Runner
		var inner eval.CellSource = runner
		if tr != nil {
			runner = tr.runner(fw)
			inner = tr.source(runner, "eval.cells")
		}
		r := repStats{SetupS: setup}
		var src *store.Source
		var rs *eval.ResultSet
		var errs []error
		r.RunS, r.AllocBytes, err = measureOp(tr, func() error {
			sp := tr.start("store.open", 0)
			st, err := store.Open(resumeDir(c))
			tr.stop(sp)
			if err != nil {
				return err
			}
			tr.set("store.open.records", float64(st.Len()))
			src = store.Cached(inner, st, fw.SweepIdentity())
			sp = tr.start("store.persist", 0)
			rs, err = src.RunPlanCtx(context.Background(), plan)
			tr.stop(sp)
			errs = append(errs, src.Err())
			sp = tr.start("store.close", 0)
			errs = append(errs, st.Close())
			tr.stop(sp)
			return err
		})
		if err != nil {
			return r, err
		}
		half, _, err := fw.ShardPlan([]string{"all"}, 0, 2)
		if err != nil {
			return r, err
		}
		r.Items = samples(rs, rs.Coords()) - samples(rs, half.Coords())
		r.Failures = append(storeFailures(errs...), runnerFailures(runner)...)
		s := src.Stats()
		if s.Hits != half.Len() || s.Misses != plan.Len()-half.Len() || s.Persisted != s.Misses {
			r.Failures = append(r.Failures, fmt.Sprintf("resume served %d hits, %d misses, %d persisted; want %d, %d, %d",
				s.Hits, s.Misses, s.Persisted, half.Len(), plan.Len()-half.Len(), plan.Len()-half.Len()))
		}
		reopened, err := store.Open(resumeDir(c))
		if err != nil {
			return r, err
		}
		if n := reopened.Len(); n != plan.Len() {
			r.Failures = append(r.Failures, fmt.Sprintf("reopened store holds %d cells, want %d", n, plan.Len()))
		}
		if err := reopened.Close(); err != nil {
			r.Failures = append(r.Failures, "store: "+err.Error())
		}
		r.Digest, err = resultsDigest(fw, rs, tr)
		tr.storeStats(s, resumeDir(c))
		if tr != nil {
			tr.replay(tr.candidates())
		}
		return r, err
	}, nil
}
