// Command bench is VGen-Go's end-to-end benchmark. It runs one named
// workload through the public APIs of core, eval, harness and store,
// checks every output against a reference, and prints each end-to-end
// metric by name and unit; with -trace 1 it alternates untraced and
// traced reps and prints the per-layer metrics instead. BENCHMARK.json at the repository
// root lists the workloads and metrics, and README.md explains them.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash bench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// The command is a parent that never does benchmark work itself: it
// re-executes its own binary as child processes, one at a time, and reads
// each child's report from the child's standard output. Cold means a
// fresh process, because eval has no public hook that empties its
// process-wide testbench and skeleton caches.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childFlag as the first argument selects the child side of the binary.
const childFlag = "-child"

// childProcs is every child's GOMAXPROCS, and benchWorkers the width of
// every Runner and the verdict stream's client count: the two cores of
// the machine the baseline was recorded on.
const (
	childProcs   = 2
	benchWorkers = 2
)

// runDeadline bounds one whole invocation; a child still running then is
// killed and the run fails.
const runDeadline = 170 * time.Second

// workload is one named input set. fresh workloads run every rep in a
// fresh child process; the others run all reps in one child.
type workload struct {
	name  string
	fresh bool
	prep  func(c childOpts) (repStats, error)
	load  func(c childOpts) (repFunc, error)
}

// repFunc runs one rep; tr is nil on untraced reps.
type repFunc func(tr *tracer) (repStats, error)

var workloads = []workload{
	{"paper-cold", true, paperColdPrep, paperColdLoad},
	{"verdict-stream", false, verdictPrep, verdictLoad},
	{"store-warm", true, storeWarmPrep, storeWarmLoad},
	{"store-resume", true, storeResumePrep, storeResumeLoad},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricDef struct{ name, unit string }

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c childOpts
	fs.StringVar(&c.Workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&c.Seed, "seed", 1, "input seed, passed as core.Config.Seed (2 is the holdout)")
	seconds := fs.Float64("seconds", 10, "how long the timed reps run, in seconds")
	trace := fs.Int("trace", 0, "1 adds traced reps and reports the per-layer metrics")
	fs.StringVar(&c.Spans, "spans", "", "with -trace 1, write the last traced rep's spans to this JSONL file")
	fs.StringVar(&c.Scale, "scale", "paper", "input scale: paper, or tiny for the smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadNamed(c.Workload)
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (have %s)\n", c.Workload, workloadNames())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case c.Scale != "paper" && c.Scale != "tiny":
		fmt.Fprintf(os.Stderr, "bench: -scale must be paper or tiny, not %q\n", c.Scale)
		return 2
	case *seconds < 0:
		fmt.Fprintln(os.Stderr, "bench: -seconds must not be negative")
		return 2
	}
	res, err := run(w, c, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout, w.name)
	if !res.Correct {
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, f)
		}
		return 1
	}
	return 0
}

// result is what one invocation prints.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`

	lines    []string // "metric median q1 q3 n unit"
	failures []string // verification failures, for stderr
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.Metrics[name] = reportedMetric{Value: med, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%s %.6g %.6g %.6g %d %s", name, med, q1, q3, len(xs), unit))
}

// print writes one line per metric and, last, the result as one JSON
// object.
func (r *result) print(w io.Writer, workload string) {
	for _, l := range r.lines {
		fmt.Fprintf(w, "%s %s\n", workload, l)
	}
	b, _ := json.Marshal(r) // plain structs and finite floats: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// run drives one workload: an untimed preparation child, then reps for
// the given number of seconds. An untraced run reports the end-to-end
// metrics over its timed reps. A traced run alternates an untraced and a
// traced single-rep child and reports the per-layer metrics as medians
// over the traced reps.
func run(w workload, c childOpts, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c.Dir, err = os.MkdirTemp("", "vgen-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.Dir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var ref report
	if _, err := runChild(ctx, exe, c, "prep", &ref); err != nil {
		return nil, err
	}
	if len(ref.Reps) != 1 {
		return nil, fmt.Errorf("preparation reported %d reps, want 1", len(ref.Reps))
	}
	res := &result{Metrics: map[string]reportedMetric{}}
	res.failures = append(res.failures, ref.Reps[0].Failures...)
	res.failures = append(res.failures, checkPinned(w.name, c, ref.Reps[0])...)
	check := func(r repStats) {
		fails := r.Failures
		if r.Digest != ref.Reps[0].Digest {
			fails = append(fails, fmt.Sprintf("digest %s, reference %s", r.Digest, ref.Reps[0].Digest))
		}
		if r.TextDigest != ref.Reps[0].TextDigest {
			fails = append(fails, fmt.Sprintf("rendered-text digest %s, reference %s", r.TextDigest, ref.Reps[0].TextDigest))
		}
		res.Attempted++
		if len(fails) > 0 {
			res.Failed++
			res.failures = append(res.failures, fails...)
		}
	}
	// rep runs one child and checks every rep it reports.
	rep := func(rc childOpts) (report, float64, error) {
		var out report
		maxrss, err := runChild(ctx, exe, rc, "rep", &out)
		for _, r := range out.Reps {
			check(r)
		}
		return out, maxrss, err
	}

	start := time.Now()
	if traced {
		var plain, runs []float64
		var layers []map[string]float64
		tc := c
		tc.Trace = true
		// The machine's speed drifts by more than the tracing overhead
		// within a run, so each traced rep is paired with an untraced one.
		for len(layers) == 0 || time.Since(start).Seconds() < seconds {
			u, _, err := rep(c)
			if err != nil {
				return nil, err
			}
			t, _, err := rep(tc)
			if err != nil {
				return nil, err
			}
			if len(u.Reps) != 1 || len(t.Reps) != 1 {
				return nil, fmt.Errorf("single-rep children reported %d and %d reps", len(u.Reps), len(t.Reps))
			}
			plain = append(plain, u.Reps[0].RunS)
			runs = append(runs, t.Reps[0].RunS)
			layers = append(layers, t.Layers)
		}
		_, med, _ := quartiles(plain)
		for i, l := range layers {
			l["trace.overhead_frac"] = runs[i]/med - 1
		}
		for _, d := range perLayer {
			var xs []float64
			for _, l := range layers {
				v, ok := l[d.name]
				if !ok {
					return nil, fmt.Errorf("traced child did not report %s", d.name)
				}
				xs = append(xs, v)
			}
			res.add(d.name, d.unit, xs)
		}
	} else {
		var reps []repStats
		var rss []float64
		rc := c
		if !w.fresh {
			rc.Seconds = seconds
		}
		for len(reps) == 0 || (w.fresh && time.Since(start).Seconds() < seconds) {
			out, maxrss, err := rep(rc)
			if err != nil {
				return nil, err
			}
			reps = append(reps, out.Reps...)
			rss = append(rss, maxrss)
		}
		col := func(f func(repStats) float64) []float64 {
			xs := make([]float64, len(reps))
			for i, r := range reps {
				xs[i] = f(r)
			}
			return xs
		}
		res.add("setup_s", "s", col(func(r repStats) float64 { return r.SetupS }))
		res.add("run_s", "s", col(func(r repStats) float64 { return r.RunS }))
		res.add("items_per_s", "items/s", col(func(r repStats) float64 { return float64(r.Items) / r.RunS }))
		res.add("alloc_mb", "MB", col(func(r repStats) float64 { return float64(r.AllocBytes) / 1e6 }))
		res.add("rss_peak_mb", "MB", rss)
	}
	res.Correct = len(res.failures) == 0
	return res, nil
}

// runChild runs one child of the given role to completion, decodes its
// report, and returns the child's peak resident set in MB.
func runChild(ctx context.Context, exe string, c childOpts, role string, out *report) (float64, error) {
	c.Role = role
	cmd := exec.CommandContext(ctx, exe, append([]string{childFlag}, c.args()...)...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	// A child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return 0, fmt.Errorf("%s child report: %w", role, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("%s child: no resource usage on this platform", role)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports Maxrss in KiB
}

// childEnv is the parent's environment with the default GC pacing a
// user's run sees and the benchmark's fixed processor count.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOGC", "GOMEMLIMIT", "GOMAXPROCS":
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(childProcs))
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}
